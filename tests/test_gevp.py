import numpy as np
import pytest
import scipy.linalg

from qemlab.channels import NoiseModel, noiseless
from qemlab.circuits import build_ansatz
from qemlab.errors import EmptySubspaceError, NonFinitePencilError, NonHermitianOverlapError, \
    SelectionFailureError
from qemlab.gevp import energy_window, regularize, solve, solve_pencil
from qemlab.pauli import build_ising
from qemlab.subspace import SubspaceSpec, build
from qemlab.vqe import exact_ground, optimize


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


class TestRegularize:
    def test_identity_full_rank(self):
        s = np.eye(3, dtype=complex)
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        red = regularize(s, h, threshold=0.5)
        assert red.retained_dim == 3

    def test_duplicated_row_drops_one(self):
        v = np.array([1.0, 0.5, 0.25])
        s = np.outer(v, v) + np.diag([1.0, 1.0, 0.0])
        s[2] = s[1]
        s[:, 2] = s[:, 1]
        s[2, 2] = s[1, 1]
        h = np.eye(3)
        red = regularize(s, h, threshold=1e-6)
        assert red.retained_dim == 2

    def test_all_below_threshold(self):
        s = np.eye(2) * 1e-30
        with pytest.raises(EmptySubspaceError):
            regularize(s, np.eye(2), threshold=2.0)

    def test_raw_lambda_min_recorded(self):
        s = np.diag([4.0, 0.01])
        red = regularize(s, np.eye(2), threshold=1e-8)
        assert red.lambda_min_raw == pytest.approx(0.01)

    @pytest.mark.parametrize("which,bad", [("s", np.nan), ("s", np.inf), ("h", np.nan),
                                           ("h", -np.inf)])
    def test_non_finite_entry_is_typed(self, which, bad):
        # NaN > x is False, so a NaN overlap used to pass the hermiticity check
        # and surface as an empty subspace
        mats = {"s": np.eye(2, dtype=complex), "h": np.diag([-2.0, -1.0]).astype(complex)}
        mats[which][0, 1] = bad
        with pytest.raises(NonFinitePencilError):
            regularize(mats["s"], mats["h"], threshold=1e-8)

    def test_non_hermitian_overlap_is_typed(self):
        s = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonHermitianOverlapError) as info:
            regularize(s, np.eye(2), threshold=1e-8)
        assert isinstance(info.value, ValueError)

    def test_scaled_lambda_min_recorded(self):
        # non-unit diagonal: the raw overlap's floor is (5 - sqrt(13)) / 2, the
        # unit-diagonal overlap [[1, 1/2], [1/2, 1]] has floor 1/2
        s = np.array([[4.0, 1.0], [1.0, 1.0]])
        h = np.diag([-2.0, -1.0])
        red = regularize(s, h, threshold=1e-8)
        assert red.lambda_min_raw == pytest.approx((5.0 - np.sqrt(13.0)) / 2.0)
        assert red.lambda_min_scaled == pytest.approx(0.5)
        sol = solve(red, (-10.0, 0.0))
        assert sol.lambda_min_raw == red.lambda_min_raw
        assert sol.lambda_min_scaled == red.lambda_min_scaled


class TestSolve:
    def test_window_selection(self):
        s = np.eye(2, dtype=complex)
        h = np.diag([-3.0, -1.0]).astype(complex)
        sol = solve_pencil(s, h, (-3.3, -2.7), threshold=1e-12)
        assert sol.energy == pytest.approx(-3.0)
        np.testing.assert_allclose(np.abs(sol.alpha), [1.0, 0.0], atol=1e-12)

    def test_no_eigenvalue_in_window(self):
        s = np.eye(2, dtype=complex)
        h = np.diag([-3.0, -1.0]).astype(complex)
        with pytest.raises(SelectionFailureError):
            solve_pencil(s, h, (-0.9, -0.5), threshold=1e-12)

    def test_two_by_two_against_dense_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            s = a @ a.conj().T + 0.5 * np.eye(2)
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h = 0.5 * (b + b.conj().T)
            want = np.sort(np.real(scipy.linalg.eigvals(h, s)))
            sol = solve_pencil(s, h, (want[0] - 1.0, want[-1] + 1.0), threshold=1e-14)
            assert sol.energy == pytest.approx(float(want[0]), abs=1e-9)

    def test_pencil_residual_and_normalization(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        s = a @ a.T + 4.0 * np.eye(4)
        b = rng.standard_normal((4, 4))
        h = 0.5 * (b + b.T)
        red = regularize(s, h, threshold=1e-12)
        lo = float(np.min(np.real(scipy.linalg.eigvals(h, s)))) - 1.0
        sol = solve(red, (lo, lo + 100.0))
        s_red = np.diag(red.s_eigvals)
        beta = red.basis.conj().T @ (sol.alpha_prime)
        resid = np.linalg.norm(red.h_reduced @ beta - sol.energy * s_red @ beta)
        assert resid <= 1e-8 * np.linalg.norm(red.h_reduced)
        norm = np.real(sol.alpha.conj() @ s @ sol.alpha)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_window_monotonicity(self):
        s = np.eye(3, dtype=complex)
        h = np.diag([-5.0, -3.0, -1.0]).astype(complex)
        wide = solve_pencil(s, h, (-6.0, 0.0), threshold=1e-12)
        narrow = solve_pencil(s, h, (wide.energy - 0.1, wide.energy + 0.1),
                              threshold=1e-12)
        assert narrow.energy == pytest.approx(wide.energy)

    def test_energy_window_shape(self):
        lo, hi = energy_window(-10.0)
        assert lo == pytest.approx(-11.0) and hi == pytest.approx(-9.0)
        with pytest.raises(ValueError):
            energy_window(1.0)


class TestOnSubspaceMatrices:
    def test_noiseless_fault_collapses_to_single_state(self):
        h = build_ising(path(3), 3)
        res = optimize(3, 3, h, iters=80, seed=2)
        ansatz = build_ansatz(3, 3, res.params, path(3))
        spec = SubspaceSpec("fault", 3, h)
        mats = build(spec, ansatz, noiseless())
        np.testing.assert_allclose(mats.s, np.ones((3, 3)), atol=1e-10)
        e_true, _ = exact_ground(h)
        sol = solve_pencil(mats.s, mats.h, energy_window(e_true), threshold=1e-6)
        assert sol.retained_dim == 1
        assert sol.energy == pytest.approx(res.energy, abs=1e-8)

    def test_power_m1_selection_failure(self):
        h = build_ising(path(3), 3)
        ansatz = build_ansatz(3, 1, np.zeros(12), path(3))
        spec = SubspaceSpec("power", 1, h)
        mats = build(spec, ansatz, noiseless())
        assert mats.s[0, 0] == pytest.approx(8.0)
        assert mats.h[0, 0] == pytest.approx(0.0)
        e_true, _ = exact_ground(h)
        with pytest.raises(SelectionFailureError):
            solve_pencil(mats.s, mats.h, energy_window(e_true), threshold=1e-10)

    def test_variational_bound_noiseless_power(self):
        h = build_ising(path(3), 3)
        e_true, _ = exact_ground(h)
        res = optimize(3, 2, h, iters=60, seed=4)
        ansatz = build_ansatz(3, 2, res.params, path(3))
        for m in (2, 3, 4):
            spec = SubspaceSpec("power", m, h)
            mats = build(spec, ansatz, noiseless())
            sol = solve_pencil(mats.s, mats.h, energy_window(e_true), threshold=1e-12)
            assert sol.energy >= e_true - 1e-9

    def test_alpha_prime_is_diagonal_normalized_alpha(self):
        h = build_ising(path(3), 3)
        res = optimize(3, 2, h, iters=60, seed=4)
        ansatz = build_ansatz(3, 2, res.params, path(3))
        noise = NoiseModel(kind="stochastic_pauli", p1=1e-3)
        spec = SubspaceSpec("power", 3, h)
        mats = build(spec, ansatz, noise)
        e_true, _ = exact_ground(h)
        sol = solve_pencil(mats.s, mats.h, energy_window(e_true), threshold=1e-10)
        dvec = np.sqrt(np.real(np.diag(mats.s)))
        np.testing.assert_allclose(sol.alpha_prime, dvec * sol.alpha, atol=1e-10)
