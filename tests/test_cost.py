import numpy as np
import pytest

from qemlab.channels import NoiseModel, global_depolarizing, noiseless
from qemlab.circuits import Circuit, build_ansatz
from qemlab.cost import cost_metric, dc_overhead
from qemlab.gevp import energy_window, solve_pencil
from qemlab.pauli import SystemPartition, build_ising
from qemlab.subspace import SubspaceSpec, build
from qemlab.vqe import exact_ground, optimize

from oracles import postselect_bound


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


class TestOverheadMetrics:
    def test_unit_vector(self):
        assert dc_overhead(np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert cost_metric(1, 1, np.array([1.0])) == pytest.approx(1.0)

    def test_closed_form_fourth_power(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert dc_overhead(v) == pytest.approx(1.0)
        assert dc_overhead(np.array([1.0, 1.0])) == pytest.approx(4.0)

    def test_metric_scales(self):
        v = np.array([0.6, 0.8])
        assert cost_metric(3, 10, v) == pytest.approx(9 * 10 * 1.0)


class TestPostselectBound:
    def test_identity(self):
        got = postselect_bound(np.eye(3), gamma=1.0, m=3)
        assert got.lambda_min == pytest.approx(1.0)
        assert got.hadamard_bound == pytest.approx(1.0)

    def test_hadamard_inequality_on_built_overlaps(self):
        h = build_ising(path(3), 3)
        res = optimize(3, 2, h, iters=50, seed=2)
        ansatz = build_ansatz(3, 2, res.params, path(3))
        noise = NoiseModel(kind="stochastic_pauli", p1=1e-3)
        for kind, m in (("power", 3), ("fault", 3)):
            mats = build(SubspaceSpec(kind, m, h), ansatz, noise)
            got = postselect_bound(mats.s, h.weight(), m)
            assert got.lambda_min <= got.hadamard_bound + 1e-12
        # divided basis
        h4 = build_ising(path(4), 4)
        part = SystemPartition(((0, 1), (2, 3)))
        h2 = build_ising(path(2), 2)
        res2 = optimize(2, 2, h2, iters=50, seed=5)
        sub = build_ansatz(2, 2, res2.params, path(2))
        mats = build(SubspaceSpec("dc", 3, h4, partition=part), [sub, sub], noise)
        got = postselect_bound(mats.s, h4.weight(), 3)
        assert got.lambda_min <= got.hadamard_bound + 1e-12

    def test_quadratic_law(self):
        base = postselect_bound(np.diag([8.0, 0.02]), gamma=1.0, m=2)
        halved = postselect_bound(np.diag([8.0, 0.01]), gamma=1.0, m=2)
        assert halved.ns_scaling >= 4.0 * base.ns_scaling - 1e-9

    def test_power_structure_chain(self):
        # lambda_min <= (Tr[I] * p0^{M-1} * gamma^{(M-1)(M-2)})^{1/M} on the
        # power-basis overlap, evaluated on actual matrices
        h = build_ising(path(3), 3)
        res = optimize(3, 2, h, iters=50, seed=2)
        ansatz = build_ansatz(3, 2, res.params, path(3))
        noise = NoiseModel(kind="stochastic_pauli", p1=1e-3)
        for m in (2, 3):
            mats = build(SubspaceSpec("power", m, h), ansatz, noise)
            p0 = float(np.real(mats.s[1, 1]))
            gamma = h.weight()
            bound = (8.0 * p0 ** (m - 1) * gamma ** ((m - 1) * (m - 2))) ** (1.0 / m)
            got = postselect_bound(mats.s, gamma, m)
            assert got.lambda_min <= bound + 1e-9


class TestDepolAmplification:
    def test_measured_norm_ratio_on_constructed_instance(self):
        # depolarized readings scale every element by (1-p)^4; measured in the
        # clean diagonal frame the coefficient norm grows by exactly (1-p)^-2
        p = 0.05
        h = build_ising(path(4), 4)
        part = SystemPartition(((0, 1), (2, 3)))
        h2 = build_ising(path(2), 2)
        res = optimize(2, 2, h2, iters=60, seed=5)
        sub = build_ansatz(2, 2, res.params, path(2))
        e_true, _ = exact_ground(h)
        win = energy_window(e_true, frac=0.35)

        spec = SubspaceSpec("dc", 3, h, partition=part)
        clean = build(spec, [sub, sub], noiseless())
        scale = (1.0 - p) ** 4
        sol_clean = solve_pencil(clean.s, clean.h, win, threshold=1e-9)
        sol_noisy = solve_pencil(scale * clean.s, scale * clean.h, win, threshold=1e-9)
        dvec = np.sqrt(np.real(np.diag(clean.s)))
        ratio = (np.linalg.norm(dvec * sol_noisy.alpha)
                 / np.linalg.norm(dvec * sol_clean.alpha))
        assert ratio == pytest.approx((1.0 - p) ** -2, abs=1e-6)

    def test_channel_built_ratio_matches_to_leading_order(self):
        # actually passing the blocks through the depolarizing channel keeps
        # the law to O(p/d) cross terms
        p = 0.05
        h = build_ising(path(4), 4)
        part = SystemPartition(((0, 1), (2, 3)))
        h2 = build_ising(path(2), 2)
        res = optimize(2, 2, h2, iters=60, seed=5)
        sub = build_ansatz(2, 2, res.params, path(2))
        e_true, _ = exact_ground(h)
        win = energy_window(e_true, frac=0.35)

        noisy_sub = Circuit(sub.n, list(sub.ops) + [global_depolarizing(p)])
        spec = SubspaceSpec("dc", 3, h, partition=part)
        clean = build(spec, [sub, sub], noiseless())
        noisy = build(spec, [noisy_sub, noisy_sub], noiseless())
        sol_clean = solve_pencil(clean.s, clean.h, win, threshold=1e-9)
        sol_noisy = solve_pencil(noisy.s, noisy.h, win, threshold=1e-9)
        dvec = np.sqrt(np.real(np.diag(clean.s)))
        ratio = (np.linalg.norm(dvec * sol_noisy.alpha)
                 / np.linalg.norm(dvec * sol_clean.alpha))
        assert ratio == pytest.approx((1.0 - p) ** -2, rel=0.1)


class TestNormalizationConstant:
    def test_uncompute_denominator_vs_copy_excess(self):
        # The uncompute test normalizes by Tr[dual state] while the copy test
        # normalizes by its ancilla excess probability, nominally half of it.
        # Where the gadget noise has not collapsed the copy reading the ratio
        # sits in [2, 8]; at the top rate the copy gadget (many noisy 2q
        # gates) collapses and the ratio blows past the band.
        from qemlab.channels import NoiseModel
        from qemlab.circuits import attach_noise
        from qemlab.pauli import PauliTerm
        from qemlab.purification import EsdEvaluator, dsp_expectation
        from qemlab.vqe import optimize

        edges = path(4)
        h = build_ising(edges, 4)
        res = optimize(4, 8, h, iters=200, seed=1)
        base = build_ansatz(4, 8, res.params, edges)
        collapsed = []
        for nk in ("stochastic_pauli", "thermal_relaxation"):
            for p1 in (1e-4, 1e-3, 3e-3, 1e-2):
                nm = NoiseModel(kind=nk, p1=p1)
                circ = attach_noise(base, nm, seed=3)
                p0 = dsp_expectation(circ, PauliTerm("IIII"), gadget_noise=nm).p0
                ev = EsdEvaluator(circ, 2, gadget_noise=nm, gadget_seed=5)
                excess = ev.numerator(None) / 2.0
                ratio = p0 / excess
                if p1 <= 3e-3:
                    assert 2.0 <= ratio <= 8.0, (nk, p1, ratio)
                else:
                    collapsed.append(ratio)
        assert all(r > 8.0 for r in collapsed)
