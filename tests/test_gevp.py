import dataclasses
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qemlab.channels import NoiseModel, noiseless
from qemlab.circuits import build_ansatz
from qemlab.errors import EmptySubspaceError, NonFinitePencilError, NonHermitianOverlapError, \
    SelectionFailureError
from qemlab.gevp import energy_window, solve_pencil, stack_energies
from qemlab.pauli import build_ising
from qemlab.subspace import SubspaceSpec, build
from qemlab.vqe import exact_ground, optimize


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


#: A window wide enough to hold every eigenvalue of the small pencils below.
WIDE = (-1e9, 1e9)


class TestRegularize:
    def test_identity_full_rank(self):
        s = np.eye(3, dtype=complex)
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        sol = solve_pencil(s, h, WIDE, threshold=0.5)
        assert sol.retained_dim == 3

    def test_duplicated_row_drops_one(self):
        v = np.array([1.0, 0.5, 0.25])
        s = np.outer(v, v) + np.diag([1.0, 1.0, 0.0])
        s[2] = s[1]
        s[:, 2] = s[:, 1]
        s[2, 2] = s[1, 1]
        h = np.eye(3)
        sol = solve_pencil(s, h, WIDE, threshold=1e-6)
        assert sol.retained_dim == 2

    def test_all_below_threshold(self):
        s = np.eye(2) * 1e-30
        with pytest.raises(EmptySubspaceError):
            solve_pencil(s, np.eye(2), WIDE, threshold=2.0)

    def test_raw_lambda_min_recorded(self):
        s = np.diag([4.0, 0.01])
        sol = solve_pencil(s, np.eye(2), WIDE, threshold=1e-8)
        assert sol.lambda_min_raw == pytest.approx(0.01)

    @pytest.mark.parametrize("which,bad", [("s", np.nan), ("s", np.inf), ("h", np.nan),
                                           ("h", -np.inf)])
    def test_non_finite_entry_is_typed(self, which, bad):
        # NaN > x is False, so a NaN overlap used to pass the hermiticity check
        # and surface as an empty subspace
        mats = {"s": np.eye(2, dtype=complex), "h": np.diag([-2.0, -1.0]).astype(complex)}
        mats[which][0, 1] = bad
        with pytest.raises(NonFinitePencilError):
            solve_pencil(mats["s"], mats["h"], WIDE, threshold=1e-8)

    def test_non_hermitian_overlap_is_typed(self):
        s = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonHermitianOverlapError) as info:
            solve_pencil(s, np.eye(2), WIDE, threshold=1e-8)
        assert isinstance(info.value, ValueError)

    def test_scaled_lambda_min_recorded(self):
        # non-unit diagonal: the raw overlap's floor is (5 - sqrt(13)) / 2, the
        # unit-diagonal overlap [[1, 1/2], [1/2, 1]] has floor 1/2
        s = np.array([[4.0, 1.0], [1.0, 1.0]])
        h = np.diag([-2.0, -1.0])
        sol = solve_pencil(s, h, (-10.0, 0.0), threshold=1e-8)
        assert sol.lambda_min_raw == pytest.approx((5.0 - np.sqrt(13.0)) / 2.0)
        assert sol.lambda_min_scaled == pytest.approx(0.5)
        lambda_min_raw, lambda_min_scaled = oracle_regularize(s, h, 1e-8)[5:]
        assert sol.lambda_min_raw == lambda_min_raw
        assert sol.lambda_min_scaled == lambda_min_scaled


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
        s_eigvals, h_reduced, basis = oracle_regularize(s, h, 1e-12)[:3]
        lo = float(np.min(np.real(scipy.linalg.eigvals(h, s)))) - 1.0
        sol = solve_pencil(s, h, (lo, lo + 100.0), threshold=1e-12)
        s_red = np.diag(s_eigvals)
        beta = basis.conj().T @ (sol.alpha_prime)
        resid = np.linalg.norm(h_reduced @ beta - sol.energy * s_red @ beta)
        assert resid <= 1e-8 * np.linalg.norm(h_reduced)
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


# ---------------------------------------------------------------------------
# the one-pencil regularize + solve, frozen as the oracle of solve_pencil and
# of the stacked solve


def oracle_regularize(s, h, threshold):
    """(s_eigvals, h_reduced, basis, dscale, retained_dim, lambda_min_raw,
    lambda_min_scaled), one pencil at a time."""
    s = np.asarray(s, dtype=complex)
    h = np.asarray(h, dtype=complex)
    m = s.shape[0]
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(h))):
        raise NonFinitePencilError("pencil has a NaN or infinite entry")
    herm = np.max(np.abs(s - s.conj().T))
    if herm > 1e-8 * max(1.0, float(np.max(np.abs(s)))):
        raise NonHermitianOverlapError(f"overlap not hermitian (deviation {herm:.3e})")
    lambda_min_raw = float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0])
    diag = np.real(np.diag(s)).copy()
    alive = diag > 0.0
    if not np.any(alive):
        raise EmptySubspaceError("all overlap diagonal entries non-positive")
    dscale = np.zeros(m)
    dscale[alive] = 1.0 / np.sqrt(diag[alive])
    d = np.diag(dscale)
    s_t = d @ s @ d
    h_t = d @ h @ d
    s_t = 0.5 * (s_t + s_t.conj().T)
    h_t = 0.5 * (h_t + h_t.conj().T)
    vals, vecs = np.linalg.eigh(s_t)
    cutoff = threshold * float(vals[-1])
    keep = vals > max(cutoff, 0.0)
    if not np.any(keep):
        raise EmptySubspaceError("no overlap eigenvalue above threshold")
    basis = vecs[:, keep]
    h_red = basis.conj().T @ h_t @ basis
    h_red = 0.5 * (h_red + h_red.conj().T)
    return (vals[keep], h_red, basis, dscale, int(np.sum(keep)), lambda_min_raw,
            float(vals[0]))


def oracle_solve(reduced, window):
    """(energy, alpha, alpha_prime) of the minimal in-window eigenvalue.

    The reduced overlap is diag(s_eigvals): the pencil is solved as the
    standard problem of w h w with w = 1/sqrt(s_eigvals), and beta = w y.
    """
    s_eigvals, h_reduced, basis, dscale = reduced[:4]
    lo, hi = window
    s_red = np.diag(s_eigvals.astype(complex))
    w = 1.0 / np.sqrt(s_eigvals)
    vals, y = np.linalg.eigh(w[:, None] * h_reduced * w[None, :])
    vecs = w[:, None] * y
    candidates = [(float(v), vecs[:, i]) for i, v in enumerate(vals)
                  if np.isfinite(v) and lo <= float(v) <= hi]
    if not candidates:
        raise SelectionFailureError("no eigenvalue in window")
    candidates.sort(key=lambda t: t[0])
    best = [c for c in candidates if c[0] <= candidates[0][0] + 1e-12]
    if len(best) > 1:
        best.sort(key=lambda t: -abs((basis @ t[1])[0]))
    e, beta = best[0]
    alpha_prime = basis @ beta
    alpha = dscale * alpha_prime
    norm = np.real(np.vdot(beta, s_red @ beta))
    if norm > 0:
        alpha = alpha / np.sqrt(norm)
        alpha_prime = alpha_prime / np.sqrt(norm)
    k = int(np.argmax(np.abs(alpha))) if np.any(np.abs(alpha) > 0) else 0
    if abs(alpha[k]) > 0:
        phase = alpha[k] / abs(alpha[k])
        alpha = alpha / phase
        alpha_prime = alpha_prime / phase
    return float(e), alpha, alpha_prime


def oracle_energies(s, h, window, threshold):
    out = []
    for sk, hk in zip(s, h):
        try:
            out.append(oracle_solve(oracle_regularize(sk, hk, threshold), window)[0])
        except (SelectionFailureError, EmptySubspaceError):
            out.append(np.nan)
    return np.array(out)


def random_pencil(rng, m, style):
    """A hermitian pencil: well conditioned, near singular, with a dead
    diagonal index, or with no positive diagonal entry at all."""
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    h = -5.0 * np.eye(m) + 0.5 * (b + b.conj().T)
    if style == "near_singular":
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        s = np.outer(v, v.conj()) + 10.0 ** rng.uniform(-9, -3) * (a @ a.conj().T)
    else:
        s = a @ a.conj().T + 0.1 * np.eye(m)
    s = 10.0 ** rng.uniform(-2, 3) * s
    if style == "dead_index":
        k = int(rng.integers(m))
        s[k, :] = s[:, k] = 0.0
        s[k, k] = -abs(s[k, k]) if rng.random() < 0.5 else 0.0
    elif style == "no_positive_diagonal":
        s = -s
    return 0.5 * (s + s.conj().T), h


STYLES = ["plain", "near_singular", "dead_index", "no_positive_diagonal"]


def pencil_of_rank(rng, m, r):
    """A hermitian pencil whose overlap has r directions of order one and
    m - r near 1e-14 of them, so a cut at 1e-8 keeps r; H sits around -5."""
    v = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    s = 10.0 ** rng.uniform(-2, 3) * (v @ v.conj().T + 1e-14 * (a @ a.conj().T))
    h = -5.0 * np.eye(m) + 0.5 * (b + b.conj().T)
    return 0.5 * (s + s.conj().T), h


def one_pencil_message(msg, m, retained, threshold, window):
    """The message ``solve_pencil`` raises where the frozen oracle raises msg:
    it numbers the pencil as the only one of its stack and names the cut or
    the window that came out empty."""
    msg = msg.replace("pencil has", "pencil 0 of 1 has").replace("overlap not", "overlap 0 of 1 not")
    if msg == "no overlap eigenvalue above threshold":
        return f"{msg} {threshold:.3e}"
    if msg == "no eigenvalue in window":
        lo, hi = window
        return f"{msg} [{lo:.6g}, {hi:.6g}] of the size-{m} pencil at retained dimension {retained}"
    return msg


class TestOnePencilSolve:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 5),
           style=st.sampled_from(STYLES),
           window=st.sampled_from([WIDE, WIDE, (-8.0, -4.0), (1.0, 2.0)]))
    def test_equals_frozen_oracle(self, seed, m, style, window):
        # every field byte-equal, or the same error type and message; one
        # pencil in five is damaged, and a cut above 1 can leave no eigenvalue
        # of the unit-diagonal overlap
        rng = np.random.default_rng(seed)
        s, h = random_pencil(rng, m, style)
        damage = int(rng.integers(10))
        if damage == 0:
            i, j = (int(k) for k in rng.integers(m, size=2))
            (s if rng.random() < 0.5 else h)[i, j] = [np.nan, np.inf, -np.inf][int(rng.integers(3))]
        elif damage == 1:
            s[0, m - 1] += 1j * np.abs(s).max()
        threshold = 10.0 ** rng.uniform(-12.0, 1.0)
        red = None
        try:
            red = oracle_regularize(s, h, threshold)
            energy, alpha, alpha_prime = oracle_solve(red, window)
        except (NonFinitePencilError, NonHermitianOverlapError, EmptySubspaceError,
                SelectionFailureError) as exc:
            with pytest.raises(type(exc)) as info:
                solve_pencil(s, h, window, threshold)
            assert type(info.value) is type(exc)
            retained = None if red is None else red[4]
            assert str(info.value) == one_pencil_message(str(exc), m, retained, threshold, window)
            return
        sol = solve_pencil(s, h, window, threshold)
        want = (energy, alpha, alpha_prime) + red[4:]
        got = [getattr(sol, f.name) for f in dataclasses.fields(sol)]
        assert len(got) == len(want)
        for got_f, want_f in zip(got, want):
            assert type(got_f) is type(want_f)
            assert np.asarray(got_f).tobytes() == np.asarray(want_f).tobytes()


class TestStackedSolve:
    """stack_energies and solve_pencil against the frozen one-pencil code."""

    def test_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, about 15 ms of every sampled run
        code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                "import numpy as np\n"
                "from qemlab.gevp import stack_energies\n"
                "s = np.array([np.eye(3), np.diag([1.0, 1.0, 1e-14])]).astype(complex)\n"
                "h = np.array([np.diag([-3.0, -2.0, 1.0])] * 2).astype(complex)\n"
                "print(stack_energies(s, h, (-5.0, 5.0), 1e-8).tolist(), 'numpy.ma' in sys.modules)\n")
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[-3.0,", "-3.0]", "False"]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 5), n=st.integers(1, 12),
           log_threshold=st.floats(-12.0, -1.0),
           window=st.sampled_from([(-100.0, 100.0), (-8.0, -4.0), (-5.2, -4.8)]))
    def test_energies_equal_one_pencil_oracle(self, seed, m, n, log_threshold, window):
        rng = np.random.default_rng(seed)
        pencils = [random_pencil(rng, m, STYLES[int(rng.integers(len(STYLES)))])
                   for _ in range(n)]
        s = np.array([p[0] for p in pencils])
        h = np.array([p[1] for p in pencils])
        threshold = 10.0 ** log_threshold
        want = oracle_energies(s, h, window, threshold)
        got = stack_energies(s, h, window, threshold)
        assert np.array_equal(got, want, equal_nan=True)
        for sk, hk in zip(s, h):
            try:
                want_red = oracle_regularize(sk, hk, threshold)
            except EmptySubspaceError:
                with pytest.raises(EmptySubspaceError):
                    solve_pencil(sk, hk, window, threshold)
                continue
            try:
                want_sol = oracle_solve(want_red, window)
            except SelectionFailureError:
                with pytest.raises(SelectionFailureError):
                    solve_pencil(sk, hk, window, threshold)
                continue
            sol = solve_pencil(sk, hk, window, threshold)
            for got_f, want_f in zip((sol.retained_dim, sol.lambda_min_raw,
                                      sol.lambda_min_scaled), want_red[4:]):
                assert np.array_equal(got_f, want_f)
            assert sol.energy == want_sol[0]
            assert np.array_equal(sol.alpha, want_sol[1])
            assert np.array_equal(sol.alpha_prime, want_sol[2])

    def test_mixed_stack_counts_rejections(self):
        rng = np.random.default_rng(11)
        pencils = [random_pencil(rng, 3, style) for style in STYLES * 3]
        s = np.array([p[0] for p in pencils])
        h = np.array([p[1] for p in pencils])
        want = oracle_energies(s, h, (-8.0, -4.0), 1e-6)
        got = stack_energies(s, h, (-8.0, -4.0), 1e-6)
        assert np.array_equal(got, want, equal_nan=True)
        assert 3 <= np.sum(np.isnan(got)) < len(got)

    def test_each_sample_cuts_at_its_own_largest_eigenvalue(self):
        # the unit-diagonal overlaps have lambda_max 1 + 2 * 0.95 and 1: a
        # cutoff of 0.5 * lambda_max taken over the stack would empty the second
        s = np.array([np.full((3, 3), 0.95) + 0.05 * np.eye(3), np.eye(3)], dtype=complex)
        h = np.array([np.diag([-3.0, -2.0, -1.0])] * 2, dtype=complex)
        got = stack_energies(s, h, (-10.0, 0.0), 0.5)
        assert np.array_equal(got, oracle_energies(s, h, (-10.0, 0.0), 0.5))
        assert got[1] == -3.0

    def test_degenerate_pair_takes_the_tie_rule(self):
        # eigenvalues e and e + 5e-13 are one tie; the upper one's eigenvector
        # leans harder on the first basis element, so it is selected
        c, sn = np.cos(0.1), np.sin(0.1)
        u = np.array([[sn, c, 0.0], [c, -sn, 0.0], [0.0, 0.0, 1.0]])
        h = u @ np.diag([-4.0, -4.0 + 5e-13, -1.0]) @ u.T
        s = np.eye(3)
        want = oracle_solve(oracle_regularize(s, h, 1e-10), (-5.0, -3.0))
        sol = solve_pencil(s, h, (-5.0, -3.0), 1e-10)
        assert sol.energy == want[0] > -4.0
        assert np.array_equal(sol.alpha, want[1])
        got = stack_energies(np.array([s, s]), np.array([h, h]), (-5.0, -3.0), 1e-10)
        assert np.array_equal(got, [want[0], want[0]])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 5), n=st.integers(1, 24))
    def test_grouped_solve_equals_one_pencil_oracle(self, seed, m, n):
        # sample i keeps r = 1 + i % m, so a stack of m or more holds every
        # retained dimension; some lose a diagonal index, some miss the window
        rng = np.random.default_rng(seed)
        s, h = np.zeros((2, n, m, m), dtype=complex)
        for i in range(n):
            s[i], h[i] = pencil_of_rank(rng, m, 1 + i % m)
            if rng.random() < 0.25:
                k = int(rng.integers(m))
                s[i, k, :] = s[i, :, k] = 0.0
            if rng.random() < 0.25:
                h[i] += 20.0 * np.eye(m)
        want = oracle_energies(s, h, (-8.0, -4.0), 1e-8)
        assert np.array_equal(stack_energies(s, h, (-8.0, -4.0), 1e-8), want, equal_nan=True)

    def test_tie_sample_among_clean_samples_of_its_dimension(self):
        # the tie pencil of test_degenerate_pair_takes_the_tie_rule, solved in
        # one group with four clean pencils that also keep all three directions
        c, sn = np.cos(0.1), np.sin(0.1)
        u = np.array([[sn, c, 0.0], [c, -sn, 0.0], [0.0, 0.0, 1.0]])
        tie = u @ np.diag([-4.0, -4.0 + 5e-13, -1.0]) @ u.T
        rng = np.random.default_rng(5)
        clean = []
        for _ in range(4):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            clean.append(q @ np.diag([-4.5, -2.0, -1.0]) @ q.conj().T)
        h = np.array(clean[:2] + [tie] + clean[2:])
        s = np.array([np.eye(3)] * 5, dtype=complex)
        want = oracle_solve(oracle_regularize(s[2], h[2], 1e-10), (-5.0, -3.0))[0]
        got = stack_energies(s, h, (-5.0, -3.0), 1e-10)
        assert got[2] == want > -4.0
        assert np.array_equal(got, oracle_energies(s, h, (-5.0, -3.0), 1e-10))
        assert np.allclose(np.delete(got, 2), -4.5)

    def test_non_positive_diagonal_rejects_one_sample(self):
        s = np.array([np.eye(2), np.diag([-1.0, 0.0]), np.diag([1.0, -1.0])], dtype=complex)
        h = np.array([np.diag([-2.0, -1.0])] * 3, dtype=complex)
        got = stack_energies(s, h, (-10.0, 0.0), 1e-8)
        assert np.array_equal(got, [-2.0, np.nan, -2.0], equal_nan=True)
        assert np.array_equal(got, oracle_energies(s, h, (-10.0, 0.0), 1e-8), equal_nan=True)

    @pytest.mark.parametrize("first,error", [("nan", NonFinitePencilError),
                                             ("skew", NonHermitianOverlapError)])
    def test_earliest_malformed_sample_raises(self, first, error):
        s = np.array([np.eye(2)] * 5, dtype=complex)
        h = np.array([np.diag([-2.0, -1.0])] * 5, dtype=complex)
        s[1, 0, 0] = -1.0  # an earlier rejection does not stop the stack
        bad = {"nan": (0, 1, np.nan), "skew": (1, 0, 0.5)}
        for k, kind in ((2, first), (4, "skew" if first == "nan" else "nan")):
            i, j, v = bad[kind]
            s[k, i, j] = v
        with pytest.raises(error, match="2 of 5"):
            stack_energies(s, h, (-10.0, 0.0), 1e-8)

    def test_hermiticity_is_judged_at_each_sample_scale(self):
        # 1e-6 off hermitian is rounding next to entries of 1e4 but not next
        # to entries of 1: a stack-wide scale would let the second pass
        s = np.array([1e4 * np.eye(2), [[1.0, 1e-6], [0.0, 1.0]]], dtype=complex)
        h = np.array([np.diag([-2.0, -1.0])] * 2, dtype=complex)
        with pytest.raises(NonHermitianOverlapError):
            oracle_regularize(s[1], h[1], 1e-8)
        with pytest.raises(NonHermitianOverlapError, match="1 of 2"):
            stack_energies(s, h, (-10.0, 0.0), 1e-8)


class TestAgainstScipy:
    """The scaled standard eigh against scipy's generalized one, to tolerance."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 5))
    def test_plain_pencils_agree_with_generalized_eigh(self, seed, m):
        s, h = random_pencil(np.random.default_rng(seed), m, "plain")
        sol = solve_pencil(s, h, (-1e9, 1e9), threshold=1e-12)
        assert sol.retained_dim == m
        vals, vecs = scipy.linalg.eigh(h, s)
        assert abs(sol.energy - vals[0]) <= 1e-12 * abs(vals[0])
        k = int(np.argmax(np.abs(sol.alpha)))
        want = vecs[:, 0] / (vecs[k, 0] / abs(vecs[k, 0]))
        np.testing.assert_allclose(sol.alpha, want, rtol=0,
                                   atol=1e-10 * np.linalg.norm(want))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 5),
           style=st.sampled_from(STYLES),
           log_threshold=st.floats(-12.0, -1.0))
    def test_reduced_residual(self, seed, m, style, log_threshold):
        s, h = random_pencil(np.random.default_rng(seed), m, style)
        if style == "no_positive_diagonal" or (style == "dead_index" and m == 1):
            with pytest.raises(EmptySubspaceError):
                solve_pencil(s, h, WIDE, 10.0 ** log_threshold)
            return
        s_eigvals, h_red, basis = oracle_regularize(s, h, 10.0 ** log_threshold)[:3]
        sol = solve_pencil(s, h, WIDE, 10.0 ** log_threshold)
        beta = basis.conj().T @ sol.alpha_prime
        s_red = np.diag(s_eigvals)
        resid = np.linalg.norm(h_red @ beta - sol.energy * s_red @ beta)
        assert resid <= 1e-9 * (np.linalg.norm(h_red) + abs(sol.energy) * np.linalg.norm(s_red))
        assert np.real(np.vdot(beta, s_red @ beta)) == pytest.approx(1.0, abs=1e-9)
