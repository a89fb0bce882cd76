import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qemlab import pauli
from qemlab.circuits import Gate, gate_matrix
from qemlab.errors import PartitionError, RegisterCapError, SizeMismatchError
from qemlab.pauli import (
    PauliSum,
    PauliTerm,
    PowerTable,
    SystemPartition,
    build_ising,
    expect_pauli,
    expect_paulis,
    factorize,
    sum_mul,
    term_matrix,
)

from oracles import dict_sum_mul, from_masks, loop_expect_pauli, sandwich_pauli

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def random_term(rng, n, unit=False):
    axes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    coeff = 1.0 if unit else complex(rng.standard_normal(), rng.standard_normal())
    return PauliTerm(axes, coeff)


def coefficients(s):
    """Each string's coefficient in the sum, keyed by its letters."""
    return {t.axes: t.coeff for t in s}


def pauli_mul(a, b):
    """a * b as the one term of ``sum_mul``'s product of one-term sums."""
    (term,) = sum_mul(PauliSum(a.n, [a]), PauliSum(b.n, [b]))
    return term


class TestPauliMul:
    def test_xy_gives_iz(self):
        a = PauliTerm("XI")
        b = PauliTerm("YI")
        c = pauli_mul(a, b)
        assert c.axes == "ZI"
        assert c.coeff == pytest.approx(1j)

    def test_involution(self):
        for axes in ["X", "Y", "Z", "XYZ", "ZZYX"]:
            p = PauliTerm(axes)
            sq = pauli_mul(p, p)
            assert sq.axes == "I" * len(axes)
            assert sq.coeff == pytest.approx(1.0)

    def test_phase_table_closure(self):
        # every single-qubit pair multiplies to phase in {1, i, -1, -i}
        # and matches the dense 2x2 product
        for a in "IXYZ":
            for b in "IXYZ":
                prod = pauli_mul(PauliTerm(a), PauliTerm(b))
                dense = PAULI_1Q[a] @ PAULI_1Q[b]
                assert prod.coeff in (1, 1j, -1, -1j) or abs(abs(prod.coeff) - 1) < 1e-15
                np.testing.assert_allclose(prod.matrix(), dense, atol=1e-15)

    def test_matches_dense_product_random(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            a, b = random_term(rng, n), random_term(rng, n)
            got = pauli_mul(a, b).matrix()
            want = a.matrix() @ b.matrix()
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            pauli_mul(PauliTerm("X"), PauliTerm("XX"))


class TestPauliTerm:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PauliTerm("X", float("nan"))

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            PauliTerm("A")

    def test_matrix_little_endian(self):
        # X on qubit 0 of a 2-qubit register flips the LSB
        m = PauliTerm("XI").matrix()
        want = np.kron(np.eye(2), PAULI_1Q["X"])
        np.testing.assert_allclose(m, want, atol=1e-15)


class TestPauliSum:
    def test_merging(self):
        s = PauliSum(1, [PauliTerm("X", 1.0), PauliTerm("X", 2.0), PauliTerm("Z", -1.0)])
        assert len(s) == 2
        assert coefficients(s)["X"] == pytest.approx(3.0)

    def test_drop_tol(self):
        s = PauliSum(1, [PauliTerm("X", 1e-15)])
        assert len(s) == 0

    def test_weight(self):
        h = build_ising([(0, 1), (1, 2)], 3)
        assert h.weight() == pytest.approx(5.0)


def kron_sum_matrix(h):
    """The dense matrix as the sum of every term's Kronecker product, in term order."""
    m = np.zeros((1 << h.n, 1 << h.n), dtype=complex)
    for t in h:
        m += t.matrix()
    return m


def assert_bit_equal(a, b):
    assert np.array_equal(a, b)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 6))
    terms = draw(st.lists(st.tuples(st.text("IXYZ", min_size=n, max_size=n),
                                    st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                                       allow_infinity=False)),
                          min_size=1, max_size=12))
    return PauliSum(n, [PauliTerm(axes, c) for axes, c in terms])


class TestSumMatrix:
    @pytest.mark.parametrize("n", [4, 8, 10])
    def test_ising_bit_equal_to_kron_sum(self, n):
        h = build_ising([(i, i + 1) for i in range(n - 1)], n)
        assert_bit_equal(h.matrix(), kron_sum_matrix(h))

    @settings(max_examples=200, deadline=None)
    @given(pauli_sums())
    def test_bit_equal_to_kron_sum(self, h):
        assert_bit_equal(h.matrix(), kron_sum_matrix(h))

    def test_one_read_only_copy_of_the_pauli_matrices(self):
        # the gates, the Pauli channel and the rotation generators read this table
        for letter, mat in pauli.PAULI_MATRICES.items():
            assert np.array_equal(mat, PAULI_1Q[letter]) and not mat.flags.writeable
        for name in "xyz":
            assert gate_matrix(Gate(name, (0,))) is pauli.PAULI_MATRICES[name.upper()]


class TestSumPow:
    def test_power_zero_and_one(self):
        h = build_ising([(0, 1)], 2)
        p0 = PowerTable(h).power(0)
        assert len(p0) == 1 and p0.identity_coefficient == pytest.approx(1.0)
        p1 = PowerTable(h).power(1)
        assert coefficients(p1)["ZZ"] == pytest.approx(-1.0)

    def test_two_qubit_ising_square(self):
        # (-ZZ - XI - IX)^2 = 3 I + 2 XX
        h = build_ising([(0, 1)], 2)
        p2 = PowerTable(h).power(2)
        assert p2.identity_coefficient == pytest.approx(3.0)
        assert coefficients(p2)["XX"] == pytest.approx(2.0)
        assert len(p2) == 2

    def test_matches_dense_oracle(self):
        h = build_ising([(0, 1), (1, 2)], 3)
        hm = h.matrix()
        acc = np.eye(8, dtype=complex)
        for k in range(5):
            np.testing.assert_allclose(PowerTable(h).power(k).matrix(), acc, atol=1e-10)
            acc = acc @ hm

    def test_power_additivity(self):
        h = build_ising([(0, 1), (1, 2), (2, 3)], 4)
        for j, k in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
            lhs = sum_mul(PowerTable(h).power(j), PowerTable(h).power(k))
            rhs = PowerTable(h).power(j + k)
            left, right = coefficients(lhs), coefficients(rhs)
            for t in rhs:
                assert left.get(t.axes, 0.0) == pytest.approx(t.coeff, abs=1e-10)
            for t in lhs:
                assert right.get(t.axes, 0.0) == pytest.approx(t.coeff, abs=1e-10)

    def test_power_table_consistent(self):
        h = build_ising([(0, 1), (1, 2)], 3)
        table = PowerTable(h)
        direct = PauliSum(3, [PauliTerm("III", 1.0)])
        for k in range(4):
            cached = coefficients(table.power(k))
            for t in direct:
                assert cached.get(t.axes, 0.0) == pytest.approx(t.coeff)
            direct = sum_mul(direct, h)


def assert_sums_bit_equal(got, want):
    """Same strings in the same order, and the same bits in every coefficient."""
    assert got.n == want.n
    assert list(got._terms) == list(want._terms)
    for k, c in want._terms.items():
        d = got._terms[k]
        assert np.array([d.real, d.imag]).tobytes() == np.array([c.real, c.imag]).tobytes(), k


# Exact parts, so that products cancel exactly and zeros carry signs; 1/3
# rounds, and 1e-13 leaves sums under the drop tolerance.
_PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1.0 / 3.0, 1e-13]


@st.composite
def sum_pairs(draw):
    """Two sums on one register, each in drawn insertion order, built
    without merging, so that signed zeros in coefficients survive."""
    n = draw(st.integers(1, 10))
    coeffs = st.builds(complex, st.sampled_from(_PARTS), st.sampled_from(_PARTS))

    def one_sum():
        terms = draw(st.dictionaries(st.text("IXYZ", min_size=n, max_size=n), coeffs,
                                     min_size=1, max_size=16))
        return from_masks(n, {pauli._axes_to_masks(a): c for a, c in terms.items()})
    return one_sum(), one_sum()


_PATH8 = build_ising([(i, i + 1) for i in range(7)], 8)
# 1282 strings times 314: 402,548 pairs, 13 blocks of _PAIR_CHUNK
_CHUNKED = (PowerTable(_PATH8).power(5), PowerTable(_PATH8).power(3))


class TestSumMulOracle:
    @settings(max_examples=300, deadline=None)
    @given(sum_pairs())
    @example((PowerTable(_PATH8).power(8), _PATH8))
    @example(_CHUNKED)
    def test_bit_equal_to_dict_loop(self, pair):
        a, b = pair
        assert_sums_bit_equal(sum_mul(a, b), dict_sum_mul(a, b))

    def test_chunked_example_spans_several_blocks(self):
        a, b = _CHUNKED
        assert len(a) * len(b) > 3 * pauli._PAIR_CHUNK

    @pytest.mark.parametrize("n", [17, 24, 31])
    def test_wide_registers(self, n):
        rng = np.random.default_rng(n)
        a, b = (PauliSum(n, [random_term(rng, n) for _ in range(20)]) for _ in range(2))
        assert_sums_bit_equal(sum_mul(a, b), dict_sum_mul(a, b))

    def test_register_limit(self):
        s = PauliSum(32, [PauliTerm("X" * 32)])
        with pytest.raises(RegisterCapError):
            sum_mul(s, s)

    def test_empty_factor(self):
        h = build_ising([(0, 1)], 2)
        assert len(sum_mul(h, PauliSum(2))) == 0
        assert len(sum_mul(PauliSum(2), h)) == 0


class TestFactorize:
    def test_literal_split(self):
        p = PauliTerm("ZZXX", 2.0)
        part = SystemPartition(((0, 1), (2, 3)))
        subs = factorize(p, part)
        assert [s.axes for s in subs] == ["ZZ", "XX"]
        assert subs[0].coeff == pytest.approx(2.0)
        assert subs[1].coeff == pytest.approx(1.0)

    def test_identity(self):
        p = PauliTerm("IIII")
        subs = factorize(p, SystemPartition(((0, 1), (2, 3))))
        assert all(s.is_identity for s in subs)

    def test_tensor_roundtrip_dense(self):
        rng = np.random.default_rng(11)
        part = SystemPartition(((0, 1, 2, 3), (4, 5, 6, 7)))
        for _ in range(5):
            p = random_term(rng, 8)
            subs = factorize(p, part)
            # contiguous blocks: kron(second, first) reproduces the full matrix
            got = np.kron(subs[1].matrix(), subs[0].matrix())
            np.testing.assert_allclose(got, p.matrix(), atol=1e-12)

    def test_partition_validation(self):
        with pytest.raises(PartitionError):
            SystemPartition(((0, 1), (1, 2)))
        with pytest.raises(PartitionError):
            SystemPartition(((0, 1), (3,)))
        with pytest.raises(PartitionError):
            factorize(PauliTerm("XX"), SystemPartition(((0, 1), (2, 3))))


class TestBuildIsing:
    def test_path_graph_8(self):
        edges = [(i, i + 1) for i in range(7)]
        h = build_ising(edges, 8)
        zz = [t for t in h if set(t.axes) == {"I", "Z"}]
        xs = [t for t in h if set(t.axes) == {"I", "X"}]
        assert len(zz) == 7 and len(xs) == 8
        assert all(t.coeff == pytest.approx(-1.0) for t in h)

    def test_single_site(self):
        h = build_ising([], 1)
        assert len(h) == 1
        assert coefficients(h)["X"] == pytest.approx(-1.0)

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError):
            build_ising([(0, 5)], 3)


def oracle_signs(idx, z):
    """(-1)^{|i & z|} by the per-call bit loop that the parity table replaced."""
    v = idx & z
    parity = np.zeros_like(v)
    while np.any(v):
        parity ^= v & 1
        v >>= 1
    return 1 - 2 * parity


def oracle_expect_pauli(rho, axes):
    n = len(axes)
    x = sum(1 << q for q, c in enumerate(axes) if c in "XY")
    z = sum(1 << q for q, c in enumerate(axes) if c in "YZ")
    idx = np.arange(1 << n)
    phase = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[(x & z).bit_count() % 4]
    return complex(phase * np.sum(oracle_signs(idx, z) * rho[idx, idx ^ x]))


def spell(x, z, n):
    """The string with X mask x and Z mask z, qubit 0 first."""
    return "".join("IXZY"[(x >> q & 1) | (z >> q & 1) << 1] for q in range(n))


@st.composite
def readouts(draw):
    """(n, seed, strings): the identity, then strings over a few X masks,
    about half of them Y on every X bit."""
    n = draw(st.integers(1, 10))
    full = (1 << n) - 1
    xs = draw(st.lists(st.integers(0, full), min_size=1, max_size=5))
    picks = draw(st.lists(st.tuples(st.sampled_from(xs), st.integers(0, full), st.booleans()),
                          max_size=40))
    strings = ["I" * n] + [spell(x, z | x if y else z, n) for x, z, y in picks]
    return n, draw(st.integers(0, 2**32 - 1)), strings


def signed_zeros_matrix(n, seed):
    """A random complex matrix with a quarter of each part forced to +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    d = 1 << n
    out = np.empty((d, d), dtype=complex)
    for part in (out.real, out.imag):
        part[...] = rng.standard_normal((d, d))
        zero = rng.random((d, d)) < 0.25
        part[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    return out


class TestFastExpectations:
    def test_parity_table_equals_bit_loop(self):
        rng = np.random.default_rng(8)
        for n in range(1, 11):
            d = 1 << n
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(12):
                axes = random_term(rng, n).axes
                assert expect_pauli(a, axes) == oracle_expect_pauli(a, axes)
            for _ in range(3):
                t = random_term(rng, n, unit=True)
                x = sum(1 << q for q, c in enumerate(t.axes) if c in "XY")
                z = sum(1 << q for q, c in enumerate(t.axes) if c in "YZ")
                idx = np.arange(d)
                signs = oracle_signs(idx, z).astype(complex)
                want = a[np.ix_(idx ^ x, idx ^ x)] * np.outer(signs[idx ^ x], signs)
                if (x & z).bit_count() % 2:
                    want = -want
                assert np.array_equal(sandwich_pauli(a, t.axes), want)

    @settings(max_examples=60, deadline=None)
    @given(readouts())
    @example((8, 5, ["I" * 8] + [spell(x, z, 8) for x in (0, 3, 255) for z in range(0, 256, 8)]))
    @example((10, 6, [spell(x, x | z, 10) for x in (1, 1023) for z in range(0, 1024, 64)]))
    def test_batched_readout_is_the_loop_bit_for_bit(self, case):
        # chunks of _READ_CHUNK entries (64 strings at n = 8, 16 at n = 10)
        # hold strings that share an X mask and strings that do not; zero
        # signs count, so compare the bits of both parts
        n, seed, strings = case
        rho = signed_zeros_matrix(n, seed)
        want = np.array([loop_expect_pauli(rho, axes) for axes in strings]).view(np.uint64)
        assert np.array_equal(np.array(expect_paulis(rho, strings)).view(np.uint64), want)
        single = np.array([expect_pauli(rho, axes) for axes in strings])
        assert np.array_equal(single.view(np.uint64), want)

    def test_batched_readout_rejects_mismatched_sizes(self):
        assert expect_paulis(np.eye(4), []) == []
        with pytest.raises(SizeMismatchError):
            expect_paulis(np.eye(4), ["XZ", "X"])
        with pytest.raises(SizeMismatchError):
            expect_paulis(np.eye(4), ["XZI"])

    def test_expect_pauli_matches_dense(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            d = 1 << n
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(10):
                t = random_term(rng, n, unit=True)
                got = expect_pauli(a, t.axes)
                want = np.trace(a @ term_matrix(t.axes))
                assert got == pytest.approx(want, abs=1e-10)

    def test_sandwich_matches_dense(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            d = 1 << n
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(10):
                t = random_term(rng, n, unit=True)
                got = sandwich_pauli(a, t.axes)
                pm = term_matrix(t.axes)
                np.testing.assert_allclose(got, pm @ a @ pm, atol=1e-10)
