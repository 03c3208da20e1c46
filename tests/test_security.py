import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qhewalk import security
from qhewalk.numerics import make_rng
from qhewalk.polarization import parse_ensemble, rotation_matrices
from qhewalk.security import (MAX_POLAR_GRID, KeyEnsemble, attack_asymptote,
                              attack_success, encrypted_density,
                              hidden_bits_linear_asymptotic, holevo,
                              holevo_poincare_limit, linear_ensemble, poincare_ensemble,
                              simulate_attack, trace_distance, von_neumann_entropy,
                              weight_class_figures)
from oracles import (attack_by_rows, density_by_keys, ensemble_rotations, holevo_by_definition,
                     implied_mutual_information, qudit_hidden_info, symmetric_basis)

LINEAR_180 = linear_ensemble(180)
POINCARE_64 = poincare_ensemble(64, 64, 64)


def dense_density(x, ens):
    """psi.T @ psi / K, times a float 0/1 popcount mask on the sphere: one 2^m product
    state per polar angle, the reference route for encrypted_density's weight basis."""
    theta = ens.polar_angles()
    rotations = rotation_matrices(0.0, 2 * theta, 0.0).real
    psi = np.ones((theta.size, 1))
    for b in map(int, x):
        psi = (psi[:, :, None] * rotations[:, None, :, b]).reshape(theta.size, -1)
    rho = psi.T @ psi / theta.size
    if ens.kind == "poincare":
        weight = np.array([bin(s).count("1") for s in range(2 ** len(x))])
        rho = rho * ((weight[:, None] - weight[None, :]) % ens.dims[0] == 0).astype(float)
    return rho


def holevo_bits(m, ensemble):
    """m - S(rho_0): the security report's holevo_bits, the Holevo quantity for flip-closed key sets."""
    return m - von_neumann_entropy(encrypted_density("0" * m, ensemble))


def explicit_holevo(m, ensemble):
    """The Holevo quantity by definition, from the m + 1 weight-class entropies."""
    return holevo(m, weight_class_figures(m, ensemble, m + 1, 0)[0])


class TestEnsembles:
    def test_parse_and_label(self):
        assert parse_ensemble("linear:180") == LINEAR_180
        assert parse_ensemble("poincare:64,64,64") == POINCARE_64
        assert LINEAR_180.label == "linear:180"
        assert POINCARE_64.label == "poincare:64,64,64"
        assert POINCARE_64.size == 64 ** 3
        assert poincare_ensemble(2 ** 32, 64, 2 ** 32).size == 2 ** 70  # an int64 product wraps to 0

    def test_parse_errors(self):
        for bad in ("linear", "circle:4", "linear:a", "linear:2,3", "poincare:4,4", "poincare:0,1,1"):
            with pytest.raises(ValueError):
                parse_ensemble(bad)

    def test_linear_rotations(self):
        rots = ensemble_rotations(linear_ensemble(2))
        assert np.allclose(rots[0], np.eye(2))
        assert np.allclose(rots[1], [[0, -1], [1, 0]], atol=1e-15)

    def test_rotations_are_unitary(self):
        for ens in (linear_ensemble(7), poincare_ensemble(3, 4, 5)):
            rots = ensemble_rotations(ens)
            assert rots.shape == (ens.size, 2, 2)
            prod = np.einsum("kji,kjl->kil", rots.conj(), rots)
            assert np.max(np.abs(prod - np.eye(2))) <= 1e-12


class TestEncryptedDensity:
    def test_single_qubit_two_keys_maximally_mixed(self):
        rho = encrypted_density("0", linear_ensemble(2))
        assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-15

    def test_single_qubit_any_linear_grid_maximally_mixed(self):
        for d in (3, 5, 8):
            rho = encrypted_density("0", linear_ensemble(d))
            assert np.max(np.abs(rho - np.eye(2) / 2)) <= 1e-12

    def test_four_qubit_linear_spectrum(self):
        # five symmetric-sector eigenvalues; exact rationals for any d > 2m
        rho = encrypted_density("0000", LINEAR_180)
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
        expect = [0.375, 0.25, 0.25, 0.0625, 0.0625]
        assert np.max(np.abs(lam[:5] - expect)) <= 1e-9
        assert np.max(np.abs(lam[5:])) <= 1e-12
        assert von_neumann_entropy(rho) == pytest.approx(2.0306390622295662, abs=1e-9)

    def test_density_invariants_exhaustive_small(self):
        for ens in (linear_ensemble(5), poincare_ensemble(4, 5, 4)):
            for m in (1, 2, 3):
                for idx in range(2 ** m):
                    x = format(idx, f"0{m}b")
                    rho = encrypted_density(x, ens)
                    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
                    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
                    assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_resource_cap(self):
        with pytest.raises(ValueError, match=r"m must lie in \[1, 8\]"):
            encrypted_density("0" * 9, linear_ensemble(4))

    def test_matches_per_key_average(self):
        # the polar-angle kernel against one expm-built product state per key
        grids = [linear_ensemble(d) for d in (1, 7, 12)] + [
            poincare_ensemble(*dims) for dims in ((1, 1, 1), (2, 5, 3), (3, 7, 1), (1, 33, 8),
                                                  (4, 4, 4), (8, 33, 1), (5, 9, 3))]
        for ens in grids:
            rots = ensemble_rotations(ens)
            for m in range(1, 6):
                for idx in range(2 ** m):
                    x = format(idx, f"0{m}b")
                    err = np.max(np.abs(encrypted_density(x, ens) - density_by_keys(x, rots)))
                    assert err <= 1e-12, (ens.label, x, err)

    @pytest.mark.parametrize("ens", [linear_ensemble(12), LINEAR_180, poincare_ensemble(3, 9, 1),
                                     POINCARE_64], ids=lambda ens: ens.label)
    def test_in_place_route_matches_the_expression_bitwise(self, ens):
        # dual route: the weight-basis density written out in 2^m against the dense
        # product states, also where the plaintext's ones are not next to each other
        for m in range(1, 9):
            for x in ("0" * m, ("0110" * 2)[:m], ("1001" * 2)[:m], ("0101" * 2)[:m], "1" * m):
                err = np.max(np.abs(encrypted_density(x, ens) - dense_density(x, ens)))
                assert err <= 1e-15, (ens.label, x, err)

    @pytest.mark.parametrize("label", ["linear:7", "poincare:3,5,1"])
    def test_bit_order_matches_per_key_average_past_five_qubits(self, label):
        # which qubits the weight basis permutes: every 5th plaintext against the oracle
        ens = parse_ensemble(label)
        rots = ensemble_rotations(ens)
        for m in range(6, 9):
            for idx in range(0, 2 ** m, 5):
                x = format(idx, f"0{m}b")
                err = np.max(np.abs(encrypted_density(x, ens) - density_by_keys(x, rots)))
                assert err <= 1e-12, (label, x, err)

    def test_heap_bound_at_the_largest_polar_grid(self):
        # the weight basis holds (polar grid) x 25 amplitudes, not (polar grid) x 2^m
        ens = linear_ensemble(MAX_POLAR_GRID)
        tracemalloc.start()
        try:
            encrypted_density("01101001", ens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

    def test_poincare_density_ignores_gamma_grid(self):
        # gamma is a global phase of every encrypted product state, so the
        # key-by-key average over any gamma grid equals the gamma-free density
        for d3 in (2, 5, 64):
            ens = poincare_ensemble(3, 9, d3)
            rots = ensemble_rotations(ens)
            for x in ("0", "01", "0110", "10011"):
                ref = encrypted_density(x, poincare_ensemble(3, 9, 1))
                assert np.max(np.abs(encrypted_density(x, ens) - ref)) <= 1e-12
                assert np.max(np.abs(density_by_keys(x, rots) - ref)) <= 1e-12


class TestHolevo:
    def test_no_encryption_leaks_everything(self):
        assert holevo_bits(4, linear_ensemble(1)) == pytest.approx(4.0, abs=1e-12)

    def test_reference_value_large_linear_grid(self):
        assert holevo_bits(4, linear_ensemble(256)) == pytest.approx(1.9694, abs=5e-3)

    def test_value_is_grid_independent_beyond_m(self):
        # trig-polynomial cutoff: the key average is exact once d > 2m
        a = holevo_bits(4, linear_ensemble(180))
        b = holevo_bits(4, linear_ensemble(360))
        assert abs(a - b) <= 1e-12

    def test_poincare_limit(self):
        chi = holevo_bits(4, POINCARE_64)
        assert chi == pytest.approx(4 - math.log2(5), abs=2e-2)

    def test_explicit_mode_agrees_for_linear(self):
        for m, d in ((2, 8), (3, 12)):
            fast = holevo_bits(m, linear_ensemble(d))
            slow = explicit_holevo(m, linear_ensemble(d))
            assert fast == pytest.approx(slow, abs=1e-8)

    def test_explicit_mode_diverges_on_the_sphere(self):
        # full-sphere keys are not closed under the plaintext bit flip, so
        # S(rho_x) genuinely varies with x; the shortcut and the explicit
        # definition then measure different things (ledgered design choice)
        ens = poincare_ensemble(16, 16, 16)
        fast = holevo_bits(2, ens)
        slow = explicit_holevo(2, ens)
        assert abs(fast - slow) > 0.05

    def test_entropy_varies_across_plaintexts_on_the_sphere(self):
        s0 = von_neumann_entropy(encrypted_density("0000", POINCARE_64))
        s1 = von_neumann_entropy(encrypted_density("0001", POINCARE_64))
        s2 = von_neumann_entropy(encrypted_density("0011", POINCARE_64))
        assert s0 == pytest.approx(2.3216552178886554, abs=1e-6)
        assert s1 == pytest.approx(2.580071, abs=1e-3)
        assert s2 == pytest.approx(2.638160, abs=1e-3)

    def test_entropy_invariant_across_plaintexts_for_linear(self):
        ens = linear_ensemble(12)
        s0 = von_neumann_entropy(encrypted_density("0000", ens))
        for idx in range(16):
            x = format(idx, "04b")
            sx = von_neumann_entropy(encrypted_density(x, ens))
            assert sx == pytest.approx(s0, abs=1e-8)

    @pytest.mark.parametrize("label", ["linear:12", "poincare:5,9,3", "poincare:2,17,1"])
    def test_weight_classes_match_definition(self, label):
        # m + 1 weight classes against all 2^m densities built key by key
        ens = parse_ensemble(label)
        for m in range(1, 6):
            assert abs(explicit_holevo(m, ens) - holevo_by_definition(m, ens)) <= 1e-13, m

    def test_m_cap(self):
        with pytest.raises(ValueError, match=r"m must lie in \[1, 8\]"):
            weight_class_figures(9, linear_ensemble(4), 10, 0)

    @pytest.mark.parametrize("label", ["linear:1", "linear:2", "linear:12", "linear:180",
                                       "poincare:64,64,64", "poincare:5,9,3", "poincare:2,17,1"])
    def test_weight_class_figures_match_the_direct_route(self, label):
        # dual route: the weight-basis figures against the dense 2^m product-state densities
        ens = parse_ensemble(label)
        for m in range(1, 9):
            rho = [dense_density("0" * (m - w) + "1" * w, ens) for w in range(m + 1)]
            S = [von_neumann_entropy(r) for r in rho]
            T = [trace_distance(rho[0], r) for r in rho[1:min(3, m) + 1]]
            for entropies, distances in ((m + 1, min(3, m)), (1, 0), (0, min(3, m))):
                got_S, got_T = weight_class_figures(m, ens, entropies, distances)
                assert len(got_S) == entropies and len(got_T) == distances
                assert np.abs(np.subtract(got_S, S[:entropies])).max(initial=0) <= 1e-13, m
                assert np.abs(np.subtract(got_T, T[:distances])).max(initial=0) <= 1e-14, m

    def test_huge_azimuthal_grid(self):
        # past m + 1 the azimuthal grid zeroes the same entries, even past the int64 range
        huge = parse_ensemble(f"poincare:{10 ** 23},64,64")
        for m in range(1, 9):
            assert weight_class_figures(m, huge, m + 1, min(3, m)) == weight_class_figures(
                m, parse_ensemble(f"poincare:{m + 1},64,64"), m + 1, min(3, m)), m

    def test_weight_class_figures_range(self):
        for entropies, distances in ((6, 0), (0, 5), (-1, 0)):
            with pytest.raises(ValueError, match=r"weights run over 0\.\.4"):
                weight_class_figures(4, linear_ensemble(4), entropies, distances)
        with pytest.raises(ValueError, match="5 weight-class entropies, got 4"):
            holevo(4, [0.0] * 4)


class TestSymmetricSector:
    def test_all_zero_state_lives_in_symmetric_subspace(self):
        S = symmetric_basis(4)
        rho = encrypted_density("0000", POINCARE_64)
        block = S @ rho @ S.T
        assert np.trace(block).real == pytest.approx(1.0, abs=1e-10)

    def test_sector_off_diagonals_collapse_with_dense_alpha_grid(self):
        # the equatorial angle drives the inter-sector phase average; a dense
        # alpha grid kills the off-diagonal blocks even with a single gamma
        S = symmetric_basis(4)
        rho = encrypted_density("0000", poincare_ensemble(8, 33, 1))
        block = S @ rho @ S.T
        off = block - np.diag(np.diag(block))
        assert np.max(np.abs(off)) <= 1e-10

    def test_gamma_grid_alone_does_not_collapse_sectors(self):
        S = symmetric_basis(4)
        rho = encrypted_density("0000", poincare_ensemble(1, 33, 8))
        block = S @ rho @ S.T
        off = block - np.diag(np.diag(block))
        assert np.max(np.abs(off)) > 0.05

    def test_weights_converge_to_uniform(self):
        S = symmetric_basis(4)
        rho = encrypted_density("0000", POINCARE_64)
        weights = np.real(np.diag(S @ rho @ S.T))
        assert np.max(np.abs(weights - 0.2)) <= 0.02


class TestAttack:
    def test_exact_values_m4(self):
        assert attack_success(4, 1) == 1.0
        assert attack_success(4, 2) == 0.5
        assert attack_success(4, 3) == pytest.approx(0.3359375, abs=1e-15)
        assert attack_success(4, 4) == pytest.approx(0.28125, abs=1e-15)
        for d in (5, 6, 12, 100, 100000):
            assert attack_success(4, d) == pytest.approx(35 / 128, abs=1e-15)

    @pytest.mark.parametrize("m", [*range(1, 65), 3500])
    def test_matches_fraction_of_binomials(self, m):
        # half[l] = C(2m, m + l) = C(2m, m - l); the mean is one correctly rounded division
        half = [math.comb(2 * m, m + l) for l in range(m + 1)]
        for d in (1, 2, 3, 12, 10 ** 9):
            num = half[0] + 2 * sum(half[d::d])
            assert attack_success(m, d) == float(Fraction(num, 4 ** m))

    def test_d2_is_half_for_any_m(self):
        for m in (1, 3, 10, 200):
            assert attack_success(m, 2) == 0.5

    def test_matches_cosine_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            m = int(rng.integers(1, 17))
            d = int(rng.integers(1, 65))
            direct = np.mean(np.cos(np.arange(d) * np.pi / d) ** (2 * m))
            assert attack_success(m, d) == pytest.approx(direct, abs=1e-12)

    def test_monotone_in_d_and_m(self):
        for m in (1, 4, 9, 16):
            vals = [attack_success(m, d) for d in range(1, 65)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        for d in (2, 5, 12, 64):
            vals = [attack_success(m, d) for m in range(1, 17)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_exact_sum_bound(self):
        # O(m^2) work, longest at d = 2 (every term): the bound stays well under a second
        m = security.MAX_ATTACK_QUBITS
        start = time.perf_counter()
        assert attack_success(m, 2) == 0.5
        assert time.perf_counter() - start < 1.0
        assert attack_success(m, 10 ** 9) == pytest.approx(attack_asymptote(m), rel=2e-5)
        with pytest.raises(ValueError, match="m must be <= 10000"):
            attack_success(m + 1, 2)

    def test_asymptote(self):
        assert attack_asymptote(4) == pytest.approx(0.2821, abs=1e-4)
        assert attack_asymptote(3500) == pytest.approx(0.009536544540177922, abs=1e-15)
        assert 0.0094 <= attack_asymptote(3500) <= 0.0097
        assert attack_asymptote(1 / math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_simulation_with_trivial_key_set(self):
        assert simulate_attack(4, 1, "0110", 500, make_rng(0)) == 1.0

    def test_simulation_tracks_closed_form(self):
        trials = 100000
        for d in (2, 3, 12):
            p = attack_success(4, d)
            phat = simulate_attack(4, d, "0000", trials, make_rng(d))
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(phat - p) <= 3 * sigma

    def test_simulation_is_plaintext_agnostic(self):
        a = simulate_attack(4, 6, "0000", 50000, make_rng(1))
        b = simulate_attack(4, 6, "1011", 50000, make_rng(1))
        assert a == b  # same draws, same per-qubit match probabilities

    @pytest.mark.parametrize("m, d", [(1, 2), (2, 5), (4, 6), (7, 12), (64, 2), (600, 12)])
    def test_counts_tally_matches_row_tally(self, m, d):
        # the per-key binomial counts against the per-qubit uniforms of the oracle,
        # each on its own stream: two rates of one law, within 4 two-sample sigma
        trials = 20000
        plaintext = "01" * (m // 2) + "1" * (m % 2)
        def philox(seed):  # make_rng takes int seeds only; these streams are seeded by tuples
            return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        counts = simulate_attack(m, d, plaintext, trials, philox((1, m, d)))
        rows = attack_by_rows(m, d, trials, philox((2, m, d)), trials)
        p = attack_success(m, d)
        band = 4 * math.sqrt(2 * p * (1 - p) / trials)
        assert abs(counts - rows) <= band
        if m in (2, 4):
            # an off-by-one exponent would fall outside the band
            assert abs(attack_success(m - 1, d) - rows) > band

    def test_simulation_memory_independent_of_m(self):
        # the tally is d counts: memory depends on neither m nor trials
        tracemalloc.start()
        try:
            simulate_attack(3500, 12, "0" * 3500, 20000, make_rng(1))
            start = time.perf_counter()
            simulate_attack(3500, 12, "0" * 3500, security.MAX_TRIALS, make_rng(1))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        assert elapsed < 1.0  # no per-trial cost

    def test_simulation_validation(self):
        with pytest.raises(ValueError, match="plaintext length 3 != m = 4"):
            simulate_attack(4, 2, "011", 10, make_rng(0))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            simulate_attack(4, 2, "0110", 0, make_rng(0))
        with pytest.raises(ValueError, match="trials must be <="):
            simulate_attack(4, 2, "0110", security.MAX_TRIALS + 1, make_rng(0))

    def test_holevo_dominates_implied_information(self):
        for d in (2, 3, 4, 6, 12):
            chi = holevo_bits(4, linear_ensemble(d))
            info = implied_mutual_information(attack_success(4, d), 4)
            assert info < chi

    def test_implied_information_edges(self):
        assert implied_mutual_information(1.0, 4) == pytest.approx(4.0)
        assert implied_mutual_information(1 / 16, 4) == pytest.approx(0.0, abs=1e-12)


class TestTraceDistance:
    def test_identical_states(self):
        rho = encrypted_density("00", linear_ensemble(6))
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            trace_distance(np.eye(2), np.eye(4))

    def test_linear_ensemble_hamming_values(self):
        rho0 = encrypted_density("0000", LINEAR_180)
        rho1 = encrypted_density("0001", LINEAR_180)
        rho2 = encrypted_density("0011", LINEAR_180)
        rho3 = encrypted_density("0111", LINEAR_180)
        t1 = trace_distance(rho0, rho1)
        t2 = trace_distance(rho0, rho2)
        t3 = trace_distance(rho0, rho3)
        assert t1 == pytest.approx(0.8080127018922195, abs=1e-9)
        assert t2 == pytest.approx(0.853553390593274, abs=1e-9)
        assert abs(t1 - t3) <= 1e-12

    def test_real_densities_match_the_complex_cast_route(self):
        # a density is a real average over the polar angle; casting it to a
        # symmetrized complex matrix must not move its entropy or distances
        def complex_cast(rho):
            return (0.5 * (rho + rho.T)).astype(complex)

        for label in ("linear:12", "linear:180", "poincare:64,64,64"):
            ens = parse_ensemble(label)
            for m in (2, 4, 6, 8):
                rho0 = encrypted_density("0" * m, ens)
                assert rho0.dtype == np.float64
                s_cast = von_neumann_entropy(complex_cast(rho0))
                assert abs(von_neumann_entropy(rho0) - s_cast) <= 1e-13, (label, m)
                for w in range(1, min(3, m) + 1):
                    rho = encrypted_density("0" * (m - w) + "1" * w, ens)
                    t_cast = trace_distance(complex_cast(rho0), complex_cast(rho))
                    assert abs(trace_distance(rho0, rho) - t_cast) <= 1e-13, (label, m, w)

    def test_poincare_ensemble_hamming_values(self):
        rho0 = encrypted_density("0000", POINCARE_64)
        t1 = trace_distance(rho0, encrypted_density("0001", POINCARE_64))
        t2 = trace_distance(rho0, encrypted_density("0011", POINCARE_64))
        assert t1 == pytest.approx(0.750059, abs=1e-5)
        assert t2 == pytest.approx(0.833362, abs=1e-5)


class TestFormulas:
    def test_holevo_poincare_limit(self):
        assert holevo_poincare_limit(1) == pytest.approx(0.0, abs=1e-15)
        assert holevo_poincare_limit(4) == pytest.approx(1.6780719051126378, abs=1e-15)
        assert holevo_poincare_limit(15) == pytest.approx(11.0, abs=1e-12)

    def test_hidden_bits_linear(self):
        assert hidden_bits_linear_asymptotic(4) == pytest.approx(2.047095585180641, abs=1e-12)
        assert hidden_bits_linear_asymptotic(2 / (math.pi * math.e)) == pytest.approx(0.0, abs=1e-12)
        assert hidden_bits_linear_asymptotic(8 / (math.pi * math.e)) == pytest.approx(1.0, abs=1e-12)

    def test_qudit_hidden_info(self):
        assert qudit_hidden_info(4, 4) == pytest.approx(4 / math.log(2))
        assert qudit_hidden_info(8, 4) == pytest.approx(4 + 4 / math.log(2))
        assert qudit_hidden_info(2, 1) == pytest.approx(1 + 1 / math.log(2))
        with pytest.raises(ValueError):
            qudit_hidden_info(3, 4)

    def test_entropy_basics(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0)
        assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="trace must be 1"):
            von_neumann_entropy(np.eye(2, dtype=complex))


def test_ensemble_kind_validation():
    with pytest.raises(ValueError):
        KeyEnsemble("circular", (4,))
    with pytest.raises(ValueError):
        KeyEnsemble("linear", (4, 4))


def test_polar_grid_bound():
    # only the polar grid costs memory; d1 and d3 are averaged away for free
    for label in (f"linear:{MAX_POLAR_GRID + 1}", f"poincare:3,{MAX_POLAR_GRID + 1},1"):
        with pytest.raises(ValueError, match=f"has a polar grid of {MAX_POLAR_GRID + 1} angles"):
            parse_ensemble(label)
    parse_ensemble(f"linear:{MAX_POLAR_GRID}")
    parse_ensemble(f"poincare:{10 ** 9},{MAX_POLAR_GRID},{10 ** 9}")
