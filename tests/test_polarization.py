import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhewalk.polarization import (Polarization, PolarizationKey, as_bits, encrypt,
                                  linear_ensemble, poincare_ensemble,
                                  projection_probability, rotation_matrices,
                                  sample_haar_key)
from oracles import A, D, H, V, euler_rotation_expm, measure_in_key_basis


def test_rotation_matches_matrix_exponential():
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha = rng.uniform(0, 2 * np.pi)
        beta = rng.uniform(0, np.pi)
        gamma = rng.uniform(0, 2 * np.pi)
        ours = rotation_matrices(alpha, beta, gamma)
        ref = euler_rotation_expm(alpha, beta, gamma)
        assert np.max(np.abs(ours - ref)) <= 1e-12


@settings(deadline=None, max_examples=50)
@given(st.floats(0, 2 * np.pi, exclude_max=True), st.floats(0, np.pi),
       st.floats(0, 2 * np.pi, exclude_max=True))
def test_rotation_is_special_unitary(alpha, beta, gamma):
    R = rotation_matrices(alpha, beta, gamma)
    assert np.max(np.abs(R.conj().T @ R - np.eye(2))) <= 1e-12
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_relative_phase_sits_on_alpha():
    # the defining convention: R|H> = cos(b/2)|H> + e^{i a} sin(b/2)|V> up to
    # a global phase, so the alpha angle alone controls the relative phase
    alpha, beta, gamma = 0.9, 1.1, 2.3
    col = rotation_matrices(alpha, beta, gamma)[:, 0]
    col = col / (col[0] / abs(col[0]))  # strip global phase
    assert col[0].real == pytest.approx(np.cos(beta / 2), abs=1e-12)
    ratio = col[1] / abs(col[1])
    assert np.angle(ratio) == pytest.approx(alpha, abs=1e-12)


def test_rotation_matrices_broadcast():
    alphas = np.array([0.0, 1.0])
    out = rotation_matrices(alphas, 0.5, 0.25)
    assert out.shape == (2, 2, 2)
    single = rotation_matrices(1.0, 0.5, 0.25)
    assert np.max(np.abs(out[1] - single)) <= 1e-15


class TestLinearKey:
    def test_small_angle_branch(self):
        key = linear_ensemble(6).key(1)  # theta = pi/6 <= pi/2
        theta = np.pi / 6
        R = rotation_matrices(key.alpha, key.beta, key.gamma)
        ref = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert np.max(np.abs(R - ref)) <= 1e-12

    def test_fold_over_branch(self):
        key = linear_ensemble(6).key(5)  # theta = 5pi/6 > pi/2 needs the folded Euler triple
        theta = 5 * np.pi / 6
        R = rotation_matrices(key.alpha, key.beta, key.gamma)
        ref = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert np.max(np.abs(R - ref)) <= 1e-12
        assert 0.0 <= key.beta <= np.pi

    def test_every_linear_key_is_a_real_rotation(self):
        d = 24
        for k in range(d):
            theta = k * np.pi / d
            key = linear_ensemble(d).key(k)
            R = rotation_matrices(key.alpha, key.beta, key.gamma)
            ref = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            assert np.max(np.abs(R - ref)) <= 1e-12

    def test_identity_key(self):
        key = linear_ensemble(1).key(0)
        assert np.max(np.abs(rotation_matrices(key.alpha, key.beta, key.gamma) - np.eye(2))) == 0.0

    def test_range_errors(self):
        with pytest.raises(ValueError, match="outside ensemble linear:4"):
            linear_ensemble(4).key(-1)
        with pytest.raises(ValueError, match="outside ensemble linear:4"):
            linear_ensemble(4).key(4)
        with pytest.raises(ValueError, match="grid sizes must be integers >= 1"):
            linear_ensemble(0).key(0)


def test_key_angle_validation():
    with pytest.raises(ValueError, match="alpha must lie in"):
        PolarizationKey(-0.1, 0.5, 0.0)
    with pytest.raises(ValueError, match="beta must lie in"):
        PolarizationKey(0.0, 3.5, 0.0)  # beta beyond pi
    with pytest.raises(ValueError, match="gamma must lie in"):
        PolarizationKey(0.0, 0.5, 2 * np.pi)  # half-open interval


def test_as_bits_forms():
    assert as_bits("0101") == (0, 1, 0, 1)
    assert as_bits([1, 0]) == (1, 0)
    assert as_bits((0,)) == (0,)
    for bad in ("012", "", [2], [0, "x"]):
        with pytest.raises(ValueError, match="plaintext (string|bits) must be"):
            as_bits(bad)


def test_polarization_normalization():
    with pytest.raises(ValueError):
        Polarization(1.0, 1.0)
    assert D.vector @ A.vector.conj() == pytest.approx(0.0, abs=1e-12)


class TestEncrypt:
    def test_identity_key_maps_bits_to_h_v(self):
        states = encrypt("01", linear_ensemble(1).key(0))
        assert np.allclose(states[0].vector, H.vector)
        assert np.allclose(states[1].vector, V.vector)

    def test_diagonal_key(self):
        states = encrypt("0", linear_ensemble(4).key(1))
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
        state = encrypt("0", linear_ensemble(1).key(0))[0]
        assert projection_probability(state, linear_ensemble(4).key(1)) == pytest.approx(0.5)


def test_grid_key_endpoints():
    assert poincare_ensemble(8, 9, 8).key(0, 0, 0).beta == 0.0
    assert poincare_ensemble(8, 9, 8).key(0, 8, 0).beta == pytest.approx(np.pi)
    assert poincare_ensemble(8, 1, 8).key(2, 0, 0).beta == 0.0  # degenerate polar grid


def real_rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def test_every_grid_key_sits_at_its_polar_angle():
    # the keys the sender draws are the angles the densities and the attack average over
    for d in range(1, 25):
        ens = linear_ensemble(d)
        theta = ens.polar_angles()
        for k in range(d):
            key = ens.key(k)
            folded = theta[k] if 2 * k <= d else np.pi - theta[k]
            assert key.beta == 2 * folded
            R = rotation_matrices(key.alpha, key.beta, key.gamma)
            assert np.max(np.abs(R - real_rotation(theta[k]))) <= 1e-12
            assert ens.polar_angles(k) == theta[k]
    for dims in ((5, 9, 3), (8, 1, 8)):
        ens = poincare_ensemble(*dims)
        theta = ens.polar_angles()
        for k1, k2, k3 in np.ndindex(*dims):
            key = ens.key(k1, k2, k3)
            assert key.beta == 2 * theta[k2]
            # alpha and gamma only add phases: strip them and the real rotation remains
            R = rotation_matrices(0.0, key.beta, 0.0)
            assert np.max(np.abs(R - real_rotation(theta[k2]))) <= 1e-12
            assert np.max(np.abs(rotation_matrices(key.alpha, key.beta, key.gamma)
                                 - rotation_matrices(key.alpha, 0.0, 0.0)
                                 @ R @ rotation_matrices(0.0, 0.0, key.gamma))) <= 1e-12


def test_linear_keys_fold_on_the_index():
    # 2*theta misses pi by an ulp at some quarter turns (d = 50, 150, ...); the
    # fold is decided on k, so every quarter turn echoes the same triple
    for d in range(1, 200):
        ens = linear_ensemble(d)
        for k in range(d):
            key = ens.key(k)
            if 2 * k == d:
                assert (key.alpha, key.beta, key.gamma) == (0.0, np.pi, 0.0), (k, d)
            else:
                assert key.alpha == key.gamma == (0.0 if 2 * k < d else np.pi), (k, d)
            assert 0.0 <= key.beta <= np.pi
            R = rotation_matrices(key.alpha, key.beta, key.gamma)
            assert np.max(np.abs(R - real_rotation(ens.polar_angles(k)))) <= 1e-12, (k, d)


def test_grid_key_range_errors():
    for ens, index in ((linear_ensemble(4), (4,)), (linear_ensemble(4), (1, 1)),
                       (poincare_ensemble(2, 3, 4), (0, 3, 0)), (poincare_ensemble(2, 3, 4), (0,))):
        with pytest.raises(ValueError, match=r"grid point \(.*\) outside ensemble"):
            ens.key(*index)


def test_sample_haar_key_deterministic():
    a = sample_haar_key(np.random.default_rng(42), 64, 64, 64)
    b = sample_haar_key(np.random.default_rng(42), 64, 64, 64)
    assert a == b


def test_sample_haar_key_pinned():
    # pinned Euler triples of the 64^3 grid: neither the draw order nor the angles may move
    pinned = [(5.301437602932776, 1.8440245093355345, 3.141592653589793),
              (2.945243112740431, 1.5866700092848522, 4.71238898038469),
              (5.203262832508095, 1.05633785123371, 0.5890486225480862),
              (5.006913291658733, 0.5711684985655375, 1.0799224746714913),
              (4.516039439535327, 2.701616698798875, 5.497787143782138)]
    for seed, triple in enumerate(pinned):
        key = sample_haar_key(np.random.default_rng(seed), 64, 64, 64)
        assert (key.alpha, key.beta, key.gamma) == triple


def test_measure_in_key_basis_statistics():
    rng = np.random.default_rng(0)
    draws = [measure_in_key_basis(D, linear_ensemble(1).key(0), rng) for _ in range(4000)]
    frac = np.mean(draws)
    assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / 4000)


def test_measure_in_key_basis_pure_cases():
    rng = np.random.default_rng(0)
    assert measure_in_key_basis(H, linear_ensemble(1).key(0), rng) == 0
    assert measure_in_key_basis(V, linear_ensemble(1).key(0), rng) == 1
