import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhewalk.polarization import (H, V, KeyRangeError, PlaintextError,
                                  Polarization, PolarizationKey, as_bits, encrypt,
                                  key_from_grid, linear_key, projection_probability,
                                  rotation_matrices, rotation_matrix, sample_haar_key)
from oracles import A, D, euler_rotation_expm, measure_in_key_basis


def test_rotation_matches_matrix_exponential():
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha = rng.uniform(0, 2 * np.pi)
        beta = rng.uniform(0, np.pi)
        gamma = rng.uniform(0, 2 * np.pi)
        ours = rotation_matrix(PolarizationKey(alpha, beta, gamma))
        ref = euler_rotation_expm(alpha, beta, gamma)
        assert np.max(np.abs(ours - ref)) <= 1e-12


@settings(deadline=None, max_examples=50)
@given(st.floats(0, 2 * np.pi, exclude_max=True), st.floats(0, np.pi),
       st.floats(0, 2 * np.pi, exclude_max=True))
def test_rotation_is_special_unitary(alpha, beta, gamma):
    R = rotation_matrix(PolarizationKey(alpha, beta, gamma))
    assert np.max(np.abs(R.conj().T @ R - np.eye(2))) <= 1e-12
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_relative_phase_sits_on_alpha():
    # the defining convention: R|H> = cos(b/2)|H> + e^{i a} sin(b/2)|V> up to
    # a global phase, so the alpha angle alone controls the relative phase
    alpha, beta, gamma = 0.9, 1.1, 2.3
    col = rotation_matrix(PolarizationKey(alpha, beta, gamma))[:, 0]
    col = col / (col[0] / abs(col[0]))  # strip global phase
    assert col[0].real == pytest.approx(np.cos(beta / 2), abs=1e-12)
    ratio = col[1] / abs(col[1])
    assert np.angle(ratio) == pytest.approx(alpha, abs=1e-12)


def test_rotation_matrices_broadcast():
    alphas = np.array([0.0, 1.0])
    out = rotation_matrices(alphas, 0.5, 0.25)
    assert out.shape == (2, 2, 2)
    single = rotation_matrix(PolarizationKey(1.0, 0.5, 0.25))
    assert np.max(np.abs(out[1] - single)) <= 1e-15


class TestLinearKey:
    def test_small_angle_branch(self):
        key = linear_key(1, 6)  # theta = pi/6 <= pi/2
        theta = np.pi / 6
        R = rotation_matrix(key)
        ref = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert np.max(np.abs(R - ref)) <= 1e-12

    def test_fold_over_branch(self):
        key = linear_key(5, 6)  # theta = 5pi/6 > pi/2 needs the folded Euler triple
        theta = 5 * np.pi / 6
        R = rotation_matrix(key)
        ref = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert np.max(np.abs(R - ref)) <= 1e-12
        assert 0.0 <= key.beta <= np.pi

    def test_every_linear_key_is_a_real_rotation(self):
        d = 24
        for k in range(d):
            theta = k * np.pi / d
            R = rotation_matrix(linear_key(k, d))
            ref = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            assert np.max(np.abs(R - ref)) <= 1e-12

    def test_identity_key(self):
        assert np.max(np.abs(rotation_matrix(linear_key(0, 1)) - np.eye(2))) == 0.0

    def test_range_errors(self):
        with pytest.raises(KeyRangeError):
            linear_key(-1, 4)
        with pytest.raises(KeyRangeError):
            linear_key(4, 4)
        with pytest.raises(KeyRangeError):
            linear_key(0, 0)


def test_key_angle_validation():
    with pytest.raises(KeyRangeError):
        PolarizationKey(-0.1, 0.5, 0.0)
    with pytest.raises(KeyRangeError):
        PolarizationKey(0.0, 3.5, 0.0)  # beta beyond pi
    with pytest.raises(KeyRangeError):
        PolarizationKey(0.0, 0.5, 2 * np.pi)  # half-open interval


def test_as_bits_forms():
    assert as_bits("0101") == (0, 1, 0, 1)
    assert as_bits([1, 0]) == (1, 0)
    assert as_bits((0,)) == (0,)
    for bad in ("012", "", [2], [0, "x"]):
        with pytest.raises(PlaintextError):
            as_bits(bad)


def test_polarization_normalization():
    with pytest.raises(ValueError):
        Polarization(1.0, 1.0)
    assert D.vector @ A.vector.conj() == pytest.approx(0.0, abs=1e-12)


class TestEncrypt:
    def test_identity_key_maps_bits_to_h_v(self):
        states = encrypt("01", linear_key(0, 1))
        assert np.allclose(states[0].vector, H.vector)
        assert np.allclose(states[1].vector, V.vector)

    def test_diagonal_key(self):
        states = encrypt("0", linear_key(1, 4))
        assert np.allclose(states[0].vector, D.vector)

    def test_decryption_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            key = sample_haar_key(rng, 64, 64, 64)
            for bit, state in zip((0, 1, 1, 0), encrypt("0110", key)):
                p0 = projection_probability(state, key)
                assert p0 == pytest.approx(1.0 - bit, abs=1e-12)

    def test_wrong_key_leaks_nothing_specific(self):
        # any linear key rotated by pi/4 from the encryption key gives 50/50
        state = encrypt("0", linear_key(0, 1))[0]
        assert projection_probability(state, linear_key(1, 4)) == pytest.approx(0.5)


def test_key_from_grid_endpoints():
    assert key_from_grid(0, 0, 0, 8, 9, 8).beta == 0.0
    assert key_from_grid(0, 8, 0, 8, 9, 8).beta == pytest.approx(np.pi)
    assert key_from_grid(2, 0, 0, 8, 1, 8).beta == 0.0  # degenerate polar grid


def test_sample_haar_key_deterministic():
    a = sample_haar_key(np.random.default_rng(42), 64, 64, 64)
    b = sample_haar_key(np.random.default_rng(42), 64, 64, 64)
    assert a == b


def test_measure_in_key_basis_statistics():
    rng = np.random.default_rng(0)
    draws = [measure_in_key_basis(D, linear_key(0, 1), rng) for _ in range(4000)]
    frac = np.mean(draws)
    assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / 4000)


def test_measure_in_key_basis_pure_cases():
    rng = np.random.default_rng(0)
    assert measure_in_key_basis(H, linear_key(0, 1), rng) == 0
    assert measure_in_key_basis(V, linear_key(0, 1), rng) == 1
