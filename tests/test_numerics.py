import json
import math
import re
from importlib import resources

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qhewalk.cli import unitary_from_payload
from qhewalk.numerics import (HERMITIAN_TOL, RYSER_MAX_DIM, finite_grid, hermitian_eig,
                              permanent, permanent_naive, unitarize)
from oracles import haar_unitary, permanent_by_definition, polar_factor_by_eigh

U1_PRINTED = np.array([
    [0.74, 0.38, 0.39, 0.40],
    [0.37, -0.34 - 0.71j, -0.17 + 0.31j, -0.18 + 0.31j],
    [0.38, -0.15 + 0.29j, -0.81 + 0.06j, 0.18 + 0.25j],
    [0.42, -0.17 + 0.32j, 0.20 + 0.18j, -0.78 + 0.08j],
])


def permanent_gray_code(M) -> complex:
    """Ryser formula by single-column Gray-code updates of the row sums.

    The slow route the subset-vectorized permanent is checked against.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if n == 0:
        return complex(1.0)
    row_sums = np.zeros(n, dtype=complex)
    total = 0j
    gray = 0
    size = 0
    for k in range(1, 1 << n):
        g = k ^ (k >> 1)
        flipped = g ^ gray
        j = flipped.bit_length() - 1
        if g & flipped:
            row_sums += M[:, j]
            size += 1
        else:
            row_sums -= M[:, j]
            size -= 1
        gray = g
        term = np.prod(row_sums)
        total += -term if (size & 1) else term
    return complex(total if (n & 1) == 0 else -total)


class TestPermanent:
    def test_empty_matrix_is_one(self):
        assert permanent(np.zeros((0, 0))) == 1.0 + 0.0j

    def test_identity(self):
        for n in range(1, 6):
            assert permanent(np.eye(n)) == pytest.approx(1.0)

    def test_all_ones_gives_factorial(self):
        import math
        for n in range(1, 7):
            assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n))

    def test_two_by_two_closed_form(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        expected = A[0, 0] * A[1, 1] + A[0, 1] * A[1, 0]
        assert permanent(A) == pytest.approx(expected)

    def test_matches_definition_small(self):
        rng = np.random.default_rng(7)
        for n in range(1, 6):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert permanent(A) == pytest.approx(permanent_by_definition(A), rel=1e-12)

    def test_matches_gray_code_route(self):
        rng = np.random.default_rng(29)
        for n in range(1, RYSER_MAX_DIM + 1):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a, b = permanent(A), permanent_gray_code(A)
            assert abs(a - b) <= 1e-10 * abs(b), n

    def test_naive_agrees_with_ryser(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a, b = permanent(A), permanent_naive(A)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2 ** 31))
    def test_permutation_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sigma = rng.permutation(n)
        tau = rng.permutation(n)
        assert permanent(A[sigma][:, tau]) == pytest.approx(permanent(A), rel=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="must be a square matrix"):
            permanent(np.ones((2, 3)))

    def test_rejects_nan(self):
        A = np.ones((2, 2))
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            permanent(A)

    def test_size_caps(self):
        with pytest.raises(ValueError, match=f"^permanent limited to n <= {RYSER_MAX_DIM}, got"):
            permanent(np.eye(RYSER_MAX_DIM + 1))
        with pytest.raises(ValueError, match="naive permanent limited to n <= 8, got 9"):
            permanent_naive(np.eye(9))


class TestHermitianEig:
    def test_matches_scipy_eigvalsh(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 8, 16):
            Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H = (Z + Z.conj().T) / 2
            ours = hermitian_eig(H).eigenvalues
            ref = scipy.linalg.eigvalsh(H)
            assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(ref)), n

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((6, 6))
        H = Z + Z.T
        lam = hermitian_eig(H).eigenvalues
        assert np.all(np.diff(lam) >= 0)

    def test_rejects_non_hermitian(self):
        M = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(M)

    @pytest.mark.parametrize("kind", [float, complex])
    def test_accepts_asymmetry_under_tolerance_and_leaves_the_input(self, kind):
        # asymmetry from 0 to 0.99 HERMITIAN_TOL is accepted and the input is left as it was;
        # just over the tolerance is refused
        rng = np.random.default_rng(12)
        for n in (2, 3, 8, 33, 64):
            Z = rng.standard_normal((n, n)).astype(kind)
            if kind is complex:
                Z += 1j * rng.standard_normal((n, n))
            H = Z + Z.conj().T
            for skew in (0.0, 1e-13, 0.99 * HERMITIAN_TOL):
                M = H.copy()
                M[0, -1] += skew * (1j if kind is complex else 1.0)
                before = M.copy()
                hermitian_eig(M)
                assert np.array_equal(M, before), (n, skew)
            M[0, -1] += 0.02 * HERMITIAN_TOL * (1j if kind is complex else 1.0)  # just over
            with pytest.raises(ValueError, match="not Hermitian"):
                hermitian_eig(M)


class TestUnitarize:
    def test_printed_device_matrix(self):
        before = np.max(np.abs(U1_PRINTED.conj().T @ U1_PRINTED - np.eye(4)))
        assert before > 0.2  # the rounded entries are visibly non-unitary
        U = unitarize(U1_PRINTED)
        after = np.max(np.abs(U.conj().T @ U - np.eye(4)))
        assert after <= 1e-13
        assert np.max(np.abs(U - U1_PRINTED)) == pytest.approx(0.10913109254568194, abs=1e-9)

    def test_matches_scipy_polar(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            ours = unitarize(M)
            ref, _ = scipy.linalg.polar(M)
            assert np.max(np.abs(ours - ref)) <= 1e-12

    def test_fixed_point_on_unitary(self):
        rng = np.random.default_rng(10)
        from oracles import haar_unitary
        U = haar_unitary(5, rng)
        assert np.max(np.abs(unitarize(U) - U)) <= 1e-13

    def test_rejects_singular(self):
        M = np.zeros((3, 3), dtype=complex)
        M[0, 0] = 1.0
        with pytest.raises(ValueError, match="singular"):
            unitarize(M)

    def test_svd_matches_iterative_eigh_route(self):
        printed = [unitary_from_payload(json.loads(
            resources.files("qhewalk").joinpath(f"devices/{name}.json").read_text()))
            for name in ("u1", "u2")]
        rng = np.random.default_rng(12)
        gaussians = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                     for n in (4, 8) for _ in range(20)]
        for M in printed + gaussians:
            assert np.max(np.abs(unitarize(M) - polar_factor_by_eigh(M))) <= 1e-13

    def test_singular_inputs_match_iterative_eigh_route(self):
        rng = np.random.default_rng(13)
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        dependent = G.copy()
        dependent[:, 3] = dependent[:, 0] - 2j * dependent[:, 1]
        singular = [np.zeros((2, 2)), np.outer(G[0], G[1]), dependent,
                    np.diag([1.0, 1.0, 1e-7])]  # s_min^2 = 1e-14 of s_max^2
        for M in singular:
            with pytest.raises(ValueError, match="singular"):
                unitarize(M)
            with pytest.raises(ValueError):
                polar_factor_by_eigh(M)
        # s_min^2 = 1e-12 of s_max^2 is kept by both; the polar factor of D Q is Q.
        # The eigh route squares the condition number, so it is the looser of the two.
        Q = haar_unitary(3, rng)
        M = np.diag([1.0, 1.0, 1e-6]) @ Q
        assert np.max(np.abs(unitarize(M) - Q)) <= 1e-13
        assert np.max(np.abs(polar_factor_by_eigh(M) - Q)) <= 1e-9


def nested(leaves, shape):
    """The leaves, in order, as nested lists of the given shape (the objects themselves)."""
    cells = np.empty(len(leaves), dtype=object)
    cells[:] = leaves
    return cells.reshape(shape).tolist()


class TestFiniteGrid:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 5), st.sampled_from([(), (2,)]), st.data())
    def test_matches_numpy_on_valid_grids(self, m, tail, data):
        # the one-pass reader against numpy's own conversion, bit for bit; ints up to
        # 2^1000 and every finite float, -0.0 and subnormals included
        shape = (m, m, *tail)
        leaf = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.integers(-2 ** 1000, 2 ** 1000))
        size = int(np.prod(shape))
        value = nested(data.draw(st.lists(leaf, min_size=size, max_size=size)), shape)
        grid = finite_grid(value, shape, "'g'")
        assert grid.dtype == np.float64 and grid.shape == shape
        assert grid.tobytes() == np.array(value, dtype=float).tobytes()

    def test_device_reads_each_pair_as_complex_bit_for_bit(self):
        # the per-entry complex(re, im) route; re + 1j * im would flip a -0.0 imaginary part
        rng = np.random.default_rng(23)
        pairs = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [5e-324, -5e-324], [1, -3]]
        pairs += rng.standard_normal((20, 2)).tolist()
        for m in (1, 2, 5):
            rows = [[pairs[(j * m + i) % len(pairs)] for i in range(m)] for j in range(m)]
            U = unitary_from_payload({"m": m, "unitary": rows})
            ref = np.array([[complex(*cell) for cell in row] for row in rows])
            assert U.shape == (m, m) and U.tobytes() == ref.tobytes()

    def test_each_fault_names_its_index(self):
        good = [[[1.0, 0], [0.5, -0.0]], [[2, 3.0], [4, 5]]]
        huge = 10 ** 400
        leaves = (True, False, "1.0", None, math.nan, math.inf, -math.inf, huge, [1.0], {}, [])
        for bad in leaves:
            value = nested([x for row in good for cell in row for x in cell], (2, 2, 2))
            value[1][0][1] = bad
            # a huge value is echoed shortened, every other one in full
            echo = "1" + "0" * 17 + "..." + "0" * 19 if bad is huge else repr(bad)
            with pytest.raises(ValueError, match=re.escape(
                    f"'g'[1][0][1] must be a finite number, got {echo}")):
                finite_grid(value, (2, 2, 2), "'g'")
        for value, index in (
                ([good[0]], ""),                           # too few rows
                (good + [good[0]], ""),                    # too many rows
                ({"0": good[0], "1": good[1]}, ""),        # an object, not a list
                ("ab", ""),                                # a string, not a list
                ([good[0], [[2, 3.0]]], "[1]"),            # a short row
                ([good[0], 7], "[1]"),                     # a number for a row
                ([good[0], [[2, 3.0], [4]]], "[1][1]"),    # a short [re, im] pair
                ([good[0], [[2, 3.0], [4, 5, 6]]], "[1][1]"),
                ([good[0], [[2, 3.0], 4]], "[1][1]")):     # a number for a pair
            with pytest.raises(ValueError, match=re.escape(
                    f"'g'{index} must be a list of 2 entries")):
                finite_grid(value, (2, 2, 2), "'g'")

    def test_the_first_fault_in_order_is_named(self):
        # three faults, each named in document order once the ones before it are mended
        value = [[[1, 0], [0, True]], [[None, 0], [0]]]
        with pytest.raises(ValueError, match=re.escape("'g'[0][1][1] must be a finite number")):
            finite_grid(value, (2, 2, 2), "'g'")
        value[0][1][1] = 1
        with pytest.raises(ValueError, match=re.escape("'g'[1][0][0] must be a finite number")):
            finite_grid(value, (2, 2, 2), "'g'")
        value[1][0][0] = 1
        with pytest.raises(ValueError, match=re.escape("'g'[1][1] must be a list of 2 entries")):
            finite_grid(value, (2, 2, 2), "'g'")
