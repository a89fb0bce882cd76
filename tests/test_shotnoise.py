import copy
import functools
import itertools
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qemlab import shotnoise, subspace
from qemlab.channels import Channel, NoiseModel, noiseless
from qemlab.circuits import attach_noise, build_ansatz, dual_state, run
from qemlab.cli import main
from qemlab.errors import (
    ConfigError,
    EmptyDistributionError,
    EmptySubspaceError,
    NonFinitePencilError,
    SelectionFailureError,
    SizeMismatchError,
)
from qemlab.gevp import energy_window, solve_pencil
from qemlab.pauli import PauliTerm, SystemPartition, build_ising, expect_pauli, term_matrix
from qemlab.shotnoise import (
    ShotConfig,
    perturb,
    sample_distribution,
    var_dsp,
    var_dsp_many,
    var_pauli_state,
    var_product,
    var_product_chain,
)
from qemlab.subspace import SubspaceMatrices, SubspaceSpec, build
from qemlab.vqe import exact_ground, optimize

from oracles import dsp_circuit, per_call_sample_distribution, sandwich_pauli

PAULI = NoiseModel(kind="stochastic_pauli", p1=1e-3)
DEPOL = NoiseModel(kind="global_depolarizing", p1=0.05)


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


def random_noisy_circuit(rng, n, depth, noise, seed=0):
    from qemlab.circuits import Circuit, Gate
    c = Circuit(n)
    for _ in range(depth):
        kind = rng.choice(["rx", "rz", "cz"])
        if kind == "cz" and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            c.add(Gate("cz", (int(a), int(b))))
        else:
            q = int(rng.integers(n))
            c.add(Gate(kind if kind != "cz" else "rx", (q,),
                       float(rng.uniform(-np.pi, np.pi))))
    return attach_noise(c, noise, seed=seed)


def random_density(rng, n):
    d = 1 << n
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def oracle_var_dsp(rho, bar, axes, rb=None):
    """The scalar variance: one dense sandwich and trace product per string."""
    if rb is None:
        rb = rho @ bar
    mean = float(np.real(expect_pauli(rb, axes)))
    second = 0.5 * float(np.real(np.trace(rb))
                         + np.real(complex(np.sum(rho * sandwich_pauli(bar, axes).T))))
    return float(max(second - mean * mean, 0.0))


def oracle_var_dsp_many(rho, bar, axes_list, rb=None):
    return [oracle_var_dsp(rho, bar, axes, rb) for axes in axes_list]


# ``var_dsp_many`` reaches Tr[rho P bar P] through 3 n butterfly stages and
# one product, where the oracle takes one pairwise sum of d^2 products.  Each
# stage rounds an entry by at most half an ulp, and for states the entries
# stay of order one (|(H R)[y, k]| <= sum_i |rho[i, i^k]| <= 1 by
# Cauchy-Schwarz, likewise H Q), so to first order a variance moves by about
# (3 n + 1) u, u = 2^-53: 2.8e-15 at n = 8.  1e-14 covers that with margin;
# the largest deviation measured is 2.2e-16.
VAR_TOL = 1e-14

NOISE_KINDS = ["stochastic_pauli", "global_depolarizing", "local_depolarizing",
               "amplitude_damping", "thermal_relaxation", "coherent_drift"]


def masks_to_axes(x, z, n):
    return "".join("IXZY"[((x >> q) & 1) + 2 * ((z >> q) & 1)] for q in range(n))


def fenced_circuit(rng, n, kind, fence, seed):
    """Two random noisy halves with an optional global depolarizing fence between."""
    noise = NoiseModel(kind=kind, p1=0.02)
    c = random_noisy_circuit(rng, n, 2 * n + 1, noise, seed=seed)
    if fence == "register":
        c.add(Channel("global_depolarizing", (), (0.1,)))
    elif fence == "scoped":
        scope = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        c.add(Channel("global_depolarizing", tuple(sorted(int(q) for q in scope)), (0.1,)))
    for op in random_noisy_circuit(rng, n, 2 * n + 1, noise, seed=seed + 1).ops:
        c.add(op)
    return c


class TestVarDspMany:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), kind=st.sampled_from(NOISE_KINDS),
           seed=st.integers(0, 2**31 - 1), n_masks=st.integers(1, 4),
           per_mask=st.integers(1, 5))
    def test_equals_scalar_oracle(self, n, kind, seed, n_masks, per_mask):
        rng = np.random.default_rng(seed)
        c = random_noisy_circuit(rng, n, 3 * n + 2, NoiseModel(kind=kind, p1=0.02),
                                 seed=seed)
        rho, bar = run(c), dual_state(c)
        # strings sharing X masks, Y letters included, and the identity
        d = 1 << n
        axes = ["I" * n] + [masks_to_axes(x, int(z), n)
                            for x in rng.integers(d, size=n_masks)
                            for z in rng.choice(d, size=min(per_mask, d), replace=False)]
        axes = list(dict.fromkeys(axes))
        got = var_dsp_many(rho, bar, axes)
        np.testing.assert_allclose(got, oracle_var_dsp_many(rho, bar, axes), rtol=0, atol=VAR_TOL)
        # each string's transform column and mean read the same bits in any batch
        assert [var_dsp(rho, bar, a) for a in axes] == got

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), kind=st.sampled_from(NOISE_KINDS),
           fence=st.sampled_from([None, "register", "scoped"]), seed=st.integers(0, 2**31 - 1))
    def test_every_string_equals_oracle(self, n, kind, fence, seed):
        rng = np.random.default_rng(seed)
        c = fenced_circuit(rng, n, kind, fence, seed)
        rho, bar = run(c), dual_state(c)
        d = 1 << n
        axes = [masks_to_axes(x, z, n) for x in range(d) for z in range(d)]
        got = var_dsp_many(rho, bar, axes)
        np.testing.assert_allclose(got, oracle_var_dsp_many(rho, bar, axes), rtol=0, atol=VAR_TOL)

    def test_path8_pair_equals_oracle(self):
        rng = np.random.default_rng(11)
        ansatz = build_ansatz(8, 2, rng.uniform(-np.pi, np.pi, 48), path(8))
        c = attach_noise(ansatz, NoiseModel(kind="stochastic_pauli", p1=2e-4), seed=3)
        rho, bar = run(c), dual_state(c)
        d = 1 << 8
        x = rng.integers(d, size=60)
        axes = list(dict.fromkeys(masks_to_axes(int(xx), int(z), 8)
                                  for xx in x for z in rng.integers(d, size=4)))
        rb = rho @ bar
        got = var_dsp_many(rho, bar, axes, rb)
        np.testing.assert_allclose(got, oracle_var_dsp_many(rho, bar, axes, rb),
                                   rtol=0, atol=VAR_TOL)

    @pytest.mark.parametrize("kind", ["power", "fault", "dc"])
    def test_ledger_variances_equal_oracle(self, kind):
        h = build_ising(path(4), 4)
        rng = np.random.default_rng(8)
        if kind == "dc":
            part = SystemPartition(((0, 1), (2, 3)))
            subs = [build_ansatz(2, 2, rng.uniform(-np.pi, np.pi, 12), path(2))
                    for _ in range(2)]
            spec = SubspaceSpec("dc", 3, h, partition=part)
            mats = build(spec, subs, PAULI)
            circs = [attach_noise(sub, PAULI) for sub in subs]
            # the ledger names each block's state by its circuit's fingerprint
            pair = {("dc", "dsp", subspace._block_fingerprint(c)): (run(c), dual_state(c))
                    for c in circs}
            assert len(pair) == 2
        else:
            ansatz = build_ansatz(4, 2, rng.uniform(-np.pi, np.pi, 24), path(4))
            spec = SubspaceSpec(kind, 3, h)
            mats = build(spec, ansatz, PAULI)
            if kind == "power":
                c = attach_noise(ansatz, PAULI)
                pair = {("power", "dsp"): (run(c), dual_state(c))}
            else:
                circs = [attach_noise(ansatz, PAULI.amplified(k)) for k in (1.0, 2.0, 3.0)]
                pair = {("fault", i, j): (run(circs[i]), dual_state(circs[j]))
                        for i in range(3) for j in range(3)}
        checked = 0
        for key, k in mats.queries.items():
            state, axes = key[:-1], key[-1]
            if state in pair:
                assert abs(mats.var[k] - oracle_var_dsp(*pair[state], axes)) <= VAR_TOL, \
                    (state, axes)
                checked += 1
            else:
                assert mats.var[k] == var_pauli_state(float(np.real(mats.value[k])))
        assert checked >= 20

    def test_peak_memory_two_dense_arrays(self):
        # no d x d array: R and Q go a block of columns at a time, and only
        # C's rows at the strings' X masks are kept
        n = 8
        d = 1 << n
        rng = np.random.default_rng(4)
        rho, bar = random_density(rng, n), random_density(rng, n)
        rb = rho @ bar
        axes = list(dict.fromkeys(masks_to_axes(int(x), int(z), n)
                                  for x, z in rng.integers(d, size=(400, 2))))
        var_dsp_many(rho, bar, axes, rb)  # lazy imports and caches settle first
        tracemalloc.start()
        try:
            var_dsp_many(rho, bar, axes, rb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * d * d * 16 + 160 * 1024, peak

    def test_empty_list_touches_nothing(self):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"read {name} of a state with no strings to read")

        assert var_dsp_many(Untouchable(), Untouchable(), []) == []

    @pytest.mark.parametrize("shapes,axes", [
        (((4, 4), (8, 8), None), ["ZZ"]),
        (((4, 4), (4, 4), (8, 8)), ["ZZ"]),
        (((4, 4), (4, 4), None), ["ZZZ"]),
        (((4, 4), (4, 4), None), ["ZZ", "X"]),
        (((4, 4), (4, 2), None), ["XY"]),
    ])
    def test_mismatched_shapes_raise(self, shapes, axes):
        rho, bar, rb = (None if s is None else np.eye(*s, dtype=complex) for s in shapes)
        with pytest.raises(SizeMismatchError) as info:
            var_dsp_many(rho, bar, axes, rb)
        for s in shapes:
            if s is not None:
                assert str(s) in str(info.value)

    @pytest.mark.parametrize("scenario,shots", [
        ("stddev-vs-shots", {"ns_values": [1e6, 1e9], "n_samples": 40}),
        ("histogram", {"ns": 1e8, "n_samples": 40}),
    ])
    def test_outputs_equal_dense_oracle_run(self, tmp_path, monkeypatch, scenario, shots):
        # a last-bit change of a variance that reached a printed digit shows here
        cfg = {"scenario": scenario, "seed": 3, "graph": "path-4",
               "vqe": {"layers": 2, "iters": 60, "seed": 2},
               "noise": {"kind": "stochastic_pauli", "p1": 2e-4},
               "subspace": {"kind": "power", "m_values": [2, 3]}, "shots": shots}
        path_cfg = tmp_path / "cfg.json"
        path_cfg.write_text(json.dumps(cfg))
        outs = []
        for which in ("transform", "oracle"):
            if which == "oracle":
                monkeypatch.setattr(subspace, "var_dsp_many", oracle_var_dsp_many)
            out = tmp_path / which
            assert main(["run", "--config", str(path_cfg), "--out-dir", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                         if p.suffix == ".csv" or p.name == "manifest.json"})
        assert "manifest.json" in outs[0] and len(outs[0]) >= 2
        assert outs[0] == outs[1]


class TestVarDsp:
    def test_pure_state_extremes(self):
        rng = np.random.default_rng(0)
        c = random_noisy_circuit(rng, 2, 6, NoiseModel(kind="none"))
        rho = run(c)
        # an observable the state is an eigenstate of: variance zero
        assert var_dsp(rho, rho, "II") == pytest.approx(0.0, abs=1e-10)
        # zero-mean reading on a pure state: the gadget halves the
        # postselection success, so the single-shot variance is one half
        vals = {axes: float(np.real(np.trace(rho @ term_matrix(axes))))
                for axes in ("ZI", "XZ", "YY", "ZX")}
        for axes, mean in vals.items():
            got = var_dsp(rho, rho, axes)
            want = 0.5 * (1.0 + mean ** 2) - mean ** 2
            assert got == pytest.approx(want, abs=1e-10)

    def test_monte_carlo_oracle(self):
        # empirical variance of the simulated three-outcome reading
        rng = np.random.default_rng(1)
        trials = 0
        for seed in range(10):
            c = random_noisy_circuit(rng, 3, 8, DEPOL if seed % 2 else PAULI, seed=seed)
            rho, bar = run(c), dual_state(c)
            axes = "".join(rng.choice(list("IXYZ")) for _ in range(3))
            if set(axes) == {"I"}:
                axes = "ZII"
            full = dsp_circuit(c, PauliTerm(axes, 1.0))
            final = run(full)
            d_reg = 1 << 3
            # outcome distribution: X reading +-1 joint with all-zeros register
            p_post_plus = 0.5 * float(np.real(
                final[0, 0] + final[d_reg, d_reg] + final[0, d_reg] + final[d_reg, 0]))
            p_post_minus = 0.5 * float(np.real(
                final[0, 0] + final[d_reg, d_reg] - final[0, d_reg] - final[d_reg, 0]))
            p_rest = max(0.0, 1.0 - p_post_plus - p_post_minus)
            probs = np.array([p_post_plus, p_post_minus, p_rest])
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum()
            outcomes = np.array([1.0, -1.0, 0.0])
            n_draws = 200_000
            counts = np.random.default_rng(100 + seed).multinomial(n_draws, probs)
            draws_mean = float(outcomes @ counts) / n_draws
            draws_second = float((outcomes ** 2) @ counts) / n_draws
            emp_var = draws_second - draws_mean ** 2
            want = var_dsp(rho, bar, axes)
            mu = float(outcomes @ probs)
            mu2 = float((outcomes ** 2) @ probs)
            mu4 = float((outcomes ** 4) @ probs)
            sm_var = (mu4 - (mu2 - mu * mu) ** 2) / n_draws  # var of the variance estimate
            assert abs(emp_var - want) <= 3.0 * np.sqrt(sm_var) + 5e-4
            trials += 1
        assert trials == 10

    def test_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            c = random_noisy_circuit(rng, 2, 6, PAULI, seed=seed)
            rho, bar = run(c), dual_state(c)
            for axes in ("ZI", "XX", "II"):
                v = var_dsp(rho, bar, axes)
                assert 0.0 <= v <= 1.0 + 1e-12


class TestVarProduct:
    def test_degenerate_cases(self):
        assert var_product(2.0, 0.0, 3.0, 0.0) == 0.0
        assert var_product(0.0, 0.3, 0.0, 0.5) == pytest.approx(0.15)

    def test_monte_carlo(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            ma, va = rng.uniform(-1, 1), rng.uniform(0.01, 0.5)
            mb, vb = rng.uniform(-1, 1), rng.uniform(0.01, 0.5)
            n = 400_000
            a = rng.normal(ma, np.sqrt(va), size=n)
            b = rng.normal(mb, np.sqrt(vb), size=n)
            emp = float(np.var(a * b))
            want = var_product(ma, va, mb, vb)
            # standard error of a variance estimate ~ var * sqrt(2/n) for
            # gaussian-ish products; use a generous 3 sigma band
            prod = a * b
            mu4 = float(np.mean((prod - prod.mean()) ** 4))
            band = 3.0 * np.sqrt(max(mu4 - emp ** 2, 0.0) / n)
            assert abs(emp - want) <= band + 1e-3

    def test_chain_matches_pairwise(self):
        got = var_product_chain([(0.5, 0.1), (0.7, 0.2), (-0.3, 0.05)])
        step = var_product(0.5, 0.1, 0.7, 0.2)
        want = var_product(0.5 * 0.7, step, -0.3, 0.05)
        assert got == pytest.approx(want)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            var_product(0.0, -0.1, 0.0, 0.1)


def synthetic_matrices():
    """One query shared by four elements, for the shared-draw contract."""
    key = (("syn",), "Z")
    queries = {key: (0.5 + 0.0j, 0.04)}
    elements = [(0.0, [(1.0, (key,))], [(0, 0, 0)]), (0.0, [(2.0, (key,))], [(0, 0, 1)]),
                (0.0, [(3.0, (key,))], [(0, 1, 1)]), (0.0, [(4.0, (key,))], [(1, 0, 0)]),
                (0.0, [], [(1, 0, 1), (1, 1, 1)])]
    return SubspaceMatrices(2, queries, elements)


class TestPerturb:
    def test_infinite_shot_limit(self):
        h = build_ising(path(3), 3)
        res = optimize(3, 2, h, iters=50, seed=1)
        ansatz = build_ansatz(3, 2, res.params, path(3))
        mats = build(SubspaceSpec("power", 3, h), ansatz, PAULI)
        cfg = ShotConfig(ns=1e30, seed=9)
        s, hh = perturb(mats, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(s, mats.s, atol=1e-12)
        np.testing.assert_allclose(hh, mats.h, atol=1e-12)

    def test_shared_draw_moves_elements_together(self):
        mats = synthetic_matrices()
        cfg = ShotConfig(ns=100.0)
        s, h = perturb(mats, cfg, np.random.default_rng(7))
        shift = (s[0, 0] - 0.5).real
        assert abs(shift) > 1e-6
        assert (s[0, 1] - 1.0).real == pytest.approx(2.0 * shift, rel=1e-9)
        assert (s[1, 1] - 1.5).real == pytest.approx(3.0 * shift, rel=1e-9)
        assert (h[0, 0] - 2.0).real == pytest.approx(4.0 * shift, rel=1e-9)

    def test_budget_below_one_shot_per_query(self):
        mats = synthetic_matrices()
        with pytest.raises(ValueError):
            perturb(mats, ShotConfig(ns=0.5), np.random.default_rng(0))

    def test_element_stddev_calibration(self):
        h = build_ising(path(3), 3)
        res = optimize(3, 2, h, iters=50, seed=1)
        ansatz = build_ansatz(3, 2, res.params, path(3))
        mats = build(SubspaceSpec("fault", 2, h), ansatz, PAULI)
        ns = 1e8
        cfg = ShotConfig(ns=ns)
        q = len(mats.queries)
        draws = []
        for k in range(10000):
            s, _ = perturb(mats, cfg, np.random.default_rng([5, k]))
            draws.append(s[0, 1].real)
        emp = float(np.std(draws))
        key01 = ("fault", 0, 1, "III")
        key10 = ("fault", 1, 0, "III")
        var = 0.25 * (mats.var[mats.queries[key01]] + mats.var[mats.queries[key10]])
        want = np.sqrt(var / (ns / q))
        assert emp == pytest.approx(want, rel=0.05)


class TestSampleDistribution:
    def _mats(self):
        h = build_ising(path(3), 3)
        res = optimize(3, 2, h, iters=60, seed=1)
        ansatz = build_ansatz(3, 2, res.params, path(3))
        e_true, _ = exact_ground(h)
        mats = build(SubspaceSpec("power", 2, h), ansatz, PAULI)
        return mats, energy_window(e_true), e_true

    def test_deterministic_under_seed(self):
        mats, win, _ = self._mats()
        cfg = ShotConfig(ns=1e8, n_samples=50, seed=13)
        a = sample_distribution(mats, cfg, win)
        b = sample_distribution(mats, cfg, win)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.rejections == b.rejections

    def test_converges_to_exact_value(self):
        mats, win, _ = self._mats()
        exact = solve_pencil(mats.s, mats.h, win, threshold=1e-10).energy
        cfg = ShotConfig(ns=1e14, n_samples=100, seed=2)
        dist = sample_distribution(mats, cfg, win, threshold=1e-10)
        assert dist.mean == pytest.approx(exact, abs=1e-4)

    def test_all_rejected_raises(self):
        mats, win, _ = self._mats()
        bad_window = (-100.0, -99.0)
        cfg = ShotConfig(ns=1e10, n_samples=10, seed=3)
        with pytest.raises(EmptyDistributionError):
            sample_distribution(mats, cfg, bad_window, threshold=1e-10)

    def test_stddev_scales_inverse_sqrt(self):
        mats, win, _ = self._mats()
        stds = []
        for ns in (1e7, 1e9, 1e11):
            dist = sample_distribution(mats, ShotConfig(ns=ns, n_samples=400, seed=4),
                                       win)
            stds.append(dist.stddev)
        slope = np.polyfit(np.log10([1e7, 1e9, 1e11]), np.log10(stds), 1)[0]
        assert -0.55 <= slope <= -0.45


# ---------------------------------------------------------------------------
# the scalar sampling loop, kept as the oracle of the compiled ledger


def oracle_pencil(mats, lookup):
    """Scalar assembly: each element is its constant plus its terms in order,
    each term the coefficient times its query values left to right."""
    key_of = {k: key for key, k in mats.queries.items()}
    out = np.zeros((2, mats.m, mats.m), dtype=complex)
    for const, entry, targets in mats.elements:
        val = const
        for coeff, slots in entry:
            prod = coeff
            for k in slots:
                prod *= lookup(key_of[k])
            val += prod
        for which, i, j in targets:
            out[which, i, j] = val
            if i != j:
                out[which, j, i] = np.conj(val)
    return out[0], out[1]


def oracle_perturb(mats, cfg, rng):
    """One scalar draw per query in repr order, shared by every use."""
    keys = sorted(mats.queries, key=repr)
    spq = cfg.ns / max(len(keys), 1)

    def noisy(key):
        k = mats.queries[key]
        return complex(mats.value[k]) + rng.normal(0.0, np.sqrt(float(mats.var[k]) / spq))

    values = {key: noisy(key) for key in keys}
    return oracle_pencil(mats, values.__getitem__)


def oracle_samples(mats, cfg, window, threshold):
    energies, rejections = [], 0
    for k in range(cfg.n_samples):
        s, h = oracle_perturb(mats, cfg, np.random.default_rng([cfg.seed, k]))
        try:
            energies.append(solve_pencil(s, h, window, threshold).energy)
        except (SelectionFailureError, EmptySubspaceError):
            rejections += 1
    return np.array(energies), rejections


@functools.lru_cache(maxsize=None)
def oracle_case(kind, noisy, m=3):
    """A path-4 pencil per basis; dc has two distinct blocks, so its bulk
    terms are products of two queries."""
    h = build_ising(path(4), 4)
    noise = PAULI if noisy else noiseless()
    if kind == "dc":
        part = SystemPartition(((0, 1), (2, 3)))
        h2 = build_ising(path(2), 2)
        subs = [build_ansatz(2, 2, optimize(2, 2, h2, iters=40, seed=s).params, path(2))
                for s in (3, 4)]
        mats = build(SubspaceSpec("dc", m, h, partition=part), subs, noise)
    else:
        res = optimize(4, 2, h, iters=40, seed=3)
        mats = build(SubspaceSpec(kind, m, h), build_ansatz(4, 2, res.params, path(4)), noise)
    # the window is centred on the pencil's own energy, so that narrow
    # windows reject some samples and wide ones none
    return mats, solve_pencil(mats.s, mats.h, (-100.0, 0.0), 1e-10).energy


class TestCompiledLedger:
    def test_exact_pencil_matches_scalar_assembly(self):
        for kind in ("power", "fault", "dc"):
            for noisy in (False, True):
                mats, _ = oracle_case(kind, noisy)
                s, h = oracle_pencil(mats, lambda k: complex(mats.value[mats.queries[k]]))
                assert np.array_equal(mats.s, s) and np.array_equal(mats.h, h)
                assert np.array_equal(np.signbit(mats.s.imag), np.signbit(s.imag))

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["power", "fault", "dc"]),
           noisy=st.booleans(),
           seed=st.integers(0, 2**31 - 1),
           n_samples=st.integers(1, 24),
           log_ns=st.floats(4.0, 12.0),
           frac=st.sampled_from([0.1, 0.02, 0.002]))
    @example(kind="power", noisy=True, seed=5, n_samples=24, log_ns=5.0, frac=0.002)
    def test_samples_equal_scalar_loop(self, kind, noisy, seed, n_samples, log_ns, frac):
        mats, e_mid = oracle_case(kind, noisy)
        cfg = ShotConfig(ns=10.0 ** log_ns, n_samples=n_samples, seed=seed)
        window = energy_window(e_mid, frac)
        threshold = 10.0 / np.sqrt(cfg.ns)
        want, want_rejected = oracle_samples(mats, cfg, window, threshold)
        if len(want) == 0:
            with pytest.raises(EmptyDistributionError):
                sample_distribution(mats, cfg, window)
            return
        got = sample_distribution(mats, cfg, window)
        assert np.array_equal(got.samples, want)
        assert got.rejections == want_rejected

    def test_window_rejects_some_samples(self):
        # the explicit example above exercises rejections, not just acceptances
        mats, e_mid = oracle_case("power", True)
        cfg = ShotConfig(ns=1e5, n_samples=24, seed=5)
        got = sample_distribution(mats, cfg, energy_window(e_mid, 0.002))
        assert 0 < got.rejections < cfg.n_samples

    def test_perturb_equals_scalar_draws(self):
        for kind in ("power", "fault", "dc"):
            mats, _ = oracle_case(kind, True)
            cfg = ShotConfig(ns=1e6)
            s, h = perturb(mats, cfg, np.random.default_rng(4))
            ws, wh = oracle_perturb(mats, cfg, np.random.default_rng(4))
            assert np.array_equal(s, ws) and np.array_equal(h, wh)

    def test_stacks_split_without_changing_samples(self, monkeypatch):
        mats, e_mid = oracle_case("dc", True)
        cfg = ShotConfig(ns=1e7, n_samples=10, seed=2)
        window = energy_window(e_mid)
        whole = sample_distribution(mats, cfg, window)
        monkeypatch.setattr(shotnoise, "_STACK", 3)
        split = sample_distribution(mats, cfg, window)
        assert np.array_equal(whole.samples, split.samples)
        assert whole.rejections == split.rejections

    @pytest.mark.parametrize("kind", ["power", "fault", "dc"])
    def test_leading_slice_samples_like_fresh_build(self, kind):
        big, _ = oracle_case(kind, True, m=3)
        fresh, e_mid = oracle_case(kind, True, m=2)
        cfg = ShotConfig(ns=1e8, n_samples=30, seed=21)
        window = energy_window(e_mid)
        got = sample_distribution(big.leading(2), cfg, window)
        want = sample_distribution(fresh, cfg, window)
        assert np.array_equal(got.samples, want.samples)
        assert got.rejections == want.rejections


def fresh_family(mats):
    """The build mats with no shot-noise draws made yet."""
    family = copy.copy(mats)
    family.normals = {}
    return family


def same_distribution(got, want):
    return (np.array_equal(got.samples, want.samples) and got.mean == want.mean
            and got.stddev == want.stddev and got.rejections == want.rejections)


class TestSharedDraws:
    """Each sample's normals are drawn once per build and scaled for every
    budget and every leading block: the samples equal fresh per-call draws."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["power", "fault", "dc"]),
           noisy=st.booleans(),
           seed=st.integers(0, 2**31 - 1),
           n_samples=st.integers(1, 13),
           stack=st.integers(1, 5),
           ms=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           log_ns=st.lists(st.floats(4.0, 12.0), min_size=1, max_size=3),
           frac=st.sampled_from([0.1, 0.002]))
    @example(kind="dc", noisy=True, seed=5, n_samples=13, stack=4, ms=[3, 2, 3],
             log_ns=[5.0, 9.0], frac=0.002)
    def test_every_budget_and_m_equals_per_call_sampler(self, kind, noisy, seed, n_samples,
                                                        stack, ms, log_ns, frac):
        big, e_mid = oracle_case(kind, noisy)
        family = fresh_family(big)
        window = energy_window(e_mid, frac)
        seeds = (seed, seed + 1)
        with mock.patch.object(shotnoise, "_STACK", stack):
            for m, x, sample_seed in itertools.product(ms, log_ns, seeds):
                cfg = ShotConfig(ns=10.0 ** x, n_samples=n_samples, seed=sample_seed)
                try:
                    want = per_call_sample_distribution(big.leading(m), cfg, window)
                except EmptyDistributionError as ex:
                    with pytest.raises(EmptyDistributionError, match=re.escape(str(ex))):
                        sample_distribution(family.leading(m), cfg, window)
                    continue
                got = sample_distribution(family.leading(m), cfg, window)
                assert same_distribution(got, want), (m, cfg)
        starts = range(0, n_samples, stack)
        assert list(family.normals) == [(s, a, min(a + stack, n_samples))
                                        for s in seeds for a in starts]
        for z in family.normals.values():
            assert z.shape[0] == len(big.value) and not z.flags.writeable

    def test_normal_is_scaled_standard_normal(self):
        # numpy forms normal(loc, scale) entry by entry as loc + scale * z from
        # one sequential stream; the shared draws rely on that, bit for bit
        rng = np.random.default_rng(2025)
        for trial in range(300):
            q = int(rng.integers(0, 40))
            sd = np.abs(rng.standard_normal(q)) * 10.0 ** rng.uniform(-8, 8, q)
            sd[rng.random(q) < 0.2] = 0.0
            tiny = rng.random(q) < 0.1
            sd[tiny] = 5e-324 * rng.integers(1, 2**40, int(tiny.sum()))  # subnormal
            want = np.random.default_rng([trial, 3]).normal(0.0, sd)
            z = np.random.default_rng([trial, 3]).standard_normal(q + 50)
            assert (0.0 + sd * z[:q]).tobytes() == want.tobytes(), trial
            stacked = 0.0 + sd[:, None] * np.stack([z, z], axis=1)[:q]
            assert stacked[:, 1].tobytes() == want.tobytes(), trial

    @pytest.mark.parametrize("scenario,kind", [
        ("stddev-vs-shots", "power"), ("stddev-vs-shots", "fault"),
        ("stddev-vs-shots", "dc"), ("histogram", "power"), ("histogram", "dc"),
    ])
    def test_outputs_equal_per_call_sampler_run(self, tmp_path, monkeypatch, scenario, kind):
        shots = ({"ns_values": [1e5, 1e7, 1e9], "n_samples": 40} if scenario == "stddev-vs-shots"
                 else {"ns": 1e7, "n_samples": 40})
        cfg = {"scenario": scenario, "seed": 5, "graph": "path-4",
               "vqe": {"layers": 2, "iters": 40, "seed": 3},
               "noise": {"kind": "stochastic_pauli", "p1": 2e-4},
               "subspace": {"kind": kind, "m_values": [2, 3]}, "shots": shots}
        if kind == "dc":
            cfg["partition"] = "half-2-2"
        path_cfg = tmp_path / "cfg.json"
        path_cfg.write_text(json.dumps(cfg))
        outs = []
        for which in ("shared", "per-call"):
            if which == "per-call":
                monkeypatch.setattr("qemlab.experiments.sample_distribution",
                                    per_call_sample_distribution)
            out = tmp_path / which
            assert main(["run", "--config", str(path_cfg), "--out-dir", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                         if p.suffix == ".csv" or p.name == "manifest.json"})
        assert "manifest.json" in outs[0] and len(outs[0]) >= 2
        assert outs[0] == outs[1]

    def test_budget_grid_costs_the_memory_of_its_costliest_call(self):
        # the draws are made once and kept, one float per query and sample;
        # six budgets over two blocks peak no higher than the costliest
        # budget sampled alone on a fresh build, which draws for itself
        big, e_mid = oracle_case("power", True)
        window = energy_window(e_mid)
        n = 300
        budgets = [1e5, 1e6, 1e7, 1e8, 1e9, 1e10]
        sample_distribution(big.leading(2), ShotConfig(ns=1e6, n_samples=n, seed=99), window)
        alone = []
        for ns in budgets:
            family = fresh_family(big)
            tracemalloc.start()
            try:
                sample_distribution(family, ShotConfig(ns=ns, n_samples=n, seed=1), window)
                alone.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        family = fresh_family(big)
        tracemalloc.start()
        try:
            for ns in budgets:
                for m in (3, 2):
                    sample_distribution(family.leading(m),
                                        ShotConfig(ns=ns, n_samples=n, seed=1), window)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cache = len(big.value) * n * 8
        assert sum(z.nbytes for z in family.normals.values()) == cache
        assert kept <= cache + 32 * 1024, (kept, cache)
        assert peak <= max(alone) + 32 * 1024, (peak, alone)


class TestNoVarianceBuild:
    def test_variances_skipped_and_sampling_refused(self, monkeypatch):
        def no_chain(*a, **k):
            raise AssertionError("a build without variances computes none")

        monkeypatch.setattr(subspace, "var_product_chain", no_chain)
        h = build_ising(path(3), 3)
        ansatz = build_ansatz(3, 1, np.full(12, 0.3), path(3))
        mats = build(SubspaceSpec("power", 3, h), ansatz, PAULI, with_variances=False)
        assert not mats.with_variances
        assert all(r[5] == "" for r in mats.matrix_rows())
        part = mats.leading(2)
        assert all(r[5] == "" for r in part.matrix_rows()) and not part.with_variances
        cfg = ShotConfig(ns=1e8, n_samples=5)
        for target in (mats, part):
            with pytest.raises(ConfigError):
                sample_distribution(target, cfg, (-100.0, 0.0))
            with pytest.raises(ConfigError):
                perturb(target, cfg, np.random.default_rng(0))

    def test_rows_leave_missing_variances_empty(self):
        h = build_ising(path(3), 3)
        ansatz = build_ansatz(3, 1, np.full(12, 0.3), path(3))
        spec = SubspaceSpec("power", 2, h)
        mats = build(spec, ansatz, noiseless(), with_variances=False)
        full = build(spec, ansatz, noiseless())
        rows, full_rows = mats.matrix_rows(), full.matrix_rows()
        assert len(rows) == 8 and all(r[5] == "" for r in rows)
        assert [r[:5] for r in rows] == [r[:5] for r in full_rows]
        ledger, full_ledger = mats.ledger_rows(), full.ledger_rows()
        assert len(ledger) == len(full_ledger) == len(mats.queries)
        for key, got, want in zip(list(mats.queries), ledger, full_ledger):
            assert got[:3] == want[:3]
            assert got[3] == ("" if key[1] == "dsp" else want[3])
        assert sum(key[1] == "dsp" for key in list(mats.queries)) > 0


class TestShotSettings:
    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, True, "10"])
    def test_bad_sample_count(self, n_samples):
        with pytest.raises(ConfigError):
            ShotConfig(ns=1e8, n_samples=n_samples)

    @pytest.mark.parametrize("ns", [float("nan"), 0.0, -1e6, "1e6", None])
    def test_bad_budget(self, ns):
        with pytest.raises(ConfigError):
            ShotConfig(ns=ns)

    def test_budget_below_one_shot_per_query_is_config_error(self):
        mats = synthetic_matrices()
        with pytest.raises(ConfigError):
            sample_distribution(mats, ShotConfig(ns=0.5, n_samples=3), (-10.0, 10.0))
        with pytest.raises(ConfigError):
            perturb(mats, ShotConfig(ns=0.5), np.random.default_rng(0))

    @pytest.mark.parametrize("scenario,shots", [
        ("stddev-vs-shots", {"ns_values": [1e6], "n_samples": 0}),
        ("stddev-vs-shots", {"ns_values": [1e6], "n_samples": 2.5}),
        ("stddev-vs-shots", {"ns_values": [float("nan")], "n_samples": 10}),
        ("histogram", {"ns": -1.0, "n_samples": 10}),
    ])
    def test_run_exits_one(self, tmp_path, monkeypatch, scenario, shots):
        def no_vqe(*a, **k):
            raise AssertionError("malformed shot settings are rejected before any VQE")

        monkeypatch.setattr("qemlab.experiments.optimize", no_vqe)
        cfg = {"scenario": scenario, "seed": 0, "graph": "path-4",
               "vqe": {"layers": 1, "iters": 5, "seed": 1},
               "noise": {"kind": "stochastic_pauli", "p1": 2e-4},
               "subspace": {"kind": "power", "m_values": [2]}, "shots": shots}
        path_cfg = tmp_path / "cfg.json"
        path_cfg.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path_cfg), "--out-dir", str(tmp_path / "o")]) == 1


class TestNonFiniteSample:
    def test_nan_query_raises_instead_of_rejecting(self):
        key = (("syn",), "Z")
        queries = {key: (complex(float("nan"), 0.0), 0.04)}
        elements = [(0.0, [(1.0, (key,))], [(0, 0, 0)]), (0.0, [(0.1, (key,))], [(0, 0, 1)]),
                    (0.0, [(1.0, ())], [(0, 1, 1)]), (0.0, [(-1.0, ())], [(1, 0, 0)]),
                    (0.0, [], [(1, 0, 1)]), (0.0, [(-2.0, ())], [(1, 1, 1)])]
        mats = SubspaceMatrices(2, queries, elements)
        with pytest.raises(NonFinitePencilError):
            sample_distribution(mats, ShotConfig(ns=1e6, n_samples=4), (-10.0, 0.0))
