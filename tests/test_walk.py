import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, chi2_contingency

from qhewalk.cli import occupation_labels, unitary_from_payload, unitary_to_payload
from qhewalk.numerics import permanent, unitarize
from qhewalk.polarization import linear_ensemble, sample_haar_key
from qhewalk.walk import (MAX_SHOTS, NoiseModel, bhattacharyya_fidelity,
                          classical_output_distribution, occupation_states, occupation_to_bits,
                          output_distribution, postselect, protocol_distribution, require_law_size,
                          run_protocol, walker_pattern)
from oracles import (counts_by_uniforms, distinguishable_distribution, fidelity_by_dict,
                     haar_unitary, occupation_label, occupation_states_by_loop,
                     polynomial_distribution, postselect_by_dict, total_variation)

U1_PRINTED = np.array([
    [0.74, 0.38, 0.39, 0.40],
    [0.37, -0.34 - 0.71j, -0.17 + 0.31j, -0.18 + 0.31j],
    [0.38, -0.15 + 0.29j, -0.81 + 0.06j, 0.18 + 0.25j],
    [0.42, -0.17 + 0.32j, 0.20 + 0.18j, -0.78 + 0.08j],
])
U1 = unitarize(U1_PRINTED)
COUPLER = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


class TestEncoding:
    def test_examples(self):
        # dual rail: a walker (count 1) reads as bit 0, an empty mode as bit 1
        assert occupation_to_bits((1, 0, 0, 0)) == "0111"
        assert occupation_to_bits((1, 1, 1, 1)) == "0000"
        assert occupation_to_bits((0, 1, 1, 0)) == "1001"

    def test_rejects_multiple_photons_per_mode(self):
        # the receiver discards an outcome with two walkers in one mode
        assert postselect({(2, 0, 0, 0): 0.25, (1, 0, 0, 1): 0.75}) == ({"0110": 1.0}, 0.25)

    def test_patterns_partition_the_modes(self):
        assert walker_pattern("0111") == (1, 0, 0, 0)
        assert occupation_to_bits((0, 1, 0, 1)) == "1010"


def test_occupation_states_count():
    from math import comb
    for m, n in ((4, 1), (4, 2), (4, 3), (6, 3)):
        states = occupation_states(m, n)
        assert len(states) == comb(m + n - 1, n)
        assert len(set(states)) == len(states)
        assert all(sum(s) == n for s in states)


def test_occupation_states_match_the_loop_definition():
    for m, n in ((1, 0), (1, 1), (3, 0), (4, 3), (8, 6), (41, 2)):
        states = occupation_states(m, n)
        assert states == occupation_states_by_loop(m, n), (m, n)
        assert all(type(c) is int for s in states for c in s)


def test_label_buffer_matches_the_per_tuple_label():
    for m, n in ((1, 1), (4, 3), (8, 6), (41, 2)):
        states = occupation_states(m, n)
        assert occupation_labels(states) == [occupation_label(s) for s in states], (m, n)
        # a tally lists only the outcomes it saw, in the law's order
        assert occupation_labels(dict.fromkeys(states[::7], 1)) == [
            occupation_label(s) for s in states[::7]], (m, n)
    assert occupation_labels({}) == []


class TestOutputDistribution:
    def test_identity_is_deterministic(self):
        dist = output_distribution(np.eye(4), (0, 1, 1, 0))
        assert dist[(0, 1, 1, 0)] == pytest.approx(1.0)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_single_walker_column_law(self):
        for i in range(4):
            occ = tuple(1 if j == i else 0 for j in range(4))
            dist = output_distribution(U1, occ)
            for j in range(4):
                target = tuple(1 if k == j else 0 for k in range(4))
                assert dist[target] == pytest.approx(abs(U1[j, i]) ** 2, abs=1e-12)

    def test_reunitarized_device_first_column(self):
        # printed-entry squares are only approximate once the matrix is
        # projected back to a unitary, hence the loose tolerance
        dist = output_distribution(U1, (1, 0, 0, 0))
        printed = np.abs(U1_PRINTED[:, 0]) ** 2
        for j in range(4):
            target = tuple(1 if k == j else 0 for k in range(4))
            assert dist[target] == pytest.approx(printed[j], abs=0.06)

    def test_hong_ou_mandel_suppression(self):
        dist = output_distribution(COUPLER, (1, 1))
        assert dist[(1, 1)] == pytest.approx(0.0, abs=1e-12)
        assert dist[(2, 0)] == pytest.approx(0.5)
        assert dist[(0, 2)] == pytest.approx(0.5)

    def test_matches_polynomial_oracle(self):
        rng = np.random.default_rng(21)
        U = haar_unitary(4, rng)
        for source in [(1, 0, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0), (1, 1, 1, 0), (2, 1, 0, 0)]:
            ours = output_distribution(U, source)
            ref = polynomial_distribution(U, source)
            assert total_variation(ours, ref) <= 1e-10

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_normalization(self, m, n, seed):
        rng = np.random.default_rng(seed)
        U = haar_unitary(m, rng)
        source = occupation_states(m, n)[int(rng.integers(len(occupation_states(m, n))))]
        dist = output_distribution(U, source)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= -1e-15 for p in dist.values())

    def test_permutation_covariance(self):
        # with U'[j, i] = U[tau[j], sigma[i]]: P_U'(T | S) = P_U(tau.T | sigma.S)
        # where (perm.x)[perm[i]] = x[i]
        def scatter(occ, perm):
            arr = np.zeros(len(occ), dtype=int)
            arr[perm] = occ
            return tuple(int(v) for v in arr)

        rng = np.random.default_rng(13)
        sigma = rng.permutation(4)
        tau = rng.permutation(4)
        source = (1, 1, 0, 1)
        base = output_distribution(U1, scatter(source, sigma))
        relabeled = output_distribution(U1[tau][:, sigma], source)
        for occ, p in relabeled.items():
            assert p == pytest.approx(base[scatter(occ, tau)], abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="matrix is not unitary"):
            output_distribution(U1_PRINTED, (1, 0, 0, 0))
        # without walkers no permanent sees the matrix: only the unitarity check can object
        nan = np.full((4, 4), np.nan)
        with pytest.raises(ValueError, match="non-finite entries"):
            output_distribution(nan, (0, 0, 0, 0))
        with pytest.raises(ValueError, match="non-finite entries"):
            run_protocol(nan, "1111", linear_ensemble(1).key(0), 10, np.random.default_rng(0))

    def test_rejects_too_many_photons(self):
        with pytest.raises(ValueError, match="at most 6 photons supported, got 7"):
            output_distribution(np.eye(8), (1,) * 7 + (0,))

    def test_law_size_bound_at_each_corner(self):
        # the largest accepted law for each walker count, then one mode more
        for n, m in ((1, 4000), (2, 317), (3, 98), (4, 45), (5, 27), (6, 20)):
            require_law_size(m, n)
            with pytest.raises(ValueError, match=f"{n} photons in {m + 1} modes have"):
                require_law_size(m + 1, n)
        with pytest.raises(ValueError, match=re.escape(
                "2 photons in 318 modes have 50721 outcomes of 318 counts, 16129278 cells; "
                "at most 16000000")):
            require_law_size(318, 2)
        with pytest.raises(ValueError, match="6 photons in 21 modes have 230230 outcomes; at most 200000"):
            require_law_size(21, 6)
        # checked before enumeration: refusing 6 walkers in 41 modes builds nothing
        with pytest.raises(ValueError, match="9366819 outcomes"):
            output_distribution(np.eye(41), (1,) * 6 + (0,) * 35)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="occupation length 3 != mode count 4"):
            output_distribution(U1, (1, 0, 0))


def per_target_law(U, source, interference):
    """One np.ix_ submatrix of U and one factorial product per output state."""
    m = len(source)
    cols = np.repeat(np.arange(m), source)
    s_fact = math.prod(math.factorial(c) for c in source)
    probs = {}
    for target in occupation_states(m, sum(source)):
        sub = U[np.ix_(np.repeat(np.arange(m), target), cols)]
        if interference:
            p = abs(permanent(sub)) ** 2 / s_fact
        else:
            p = permanent(np.abs(sub) ** 2).real
        probs[target] = p / math.prod(math.factorial(c) for c in target)
    total = sum(probs.values())
    return {t: p / total for t, p in probs.items()}


ROUTE_SOURCES = [(1, 0), (1, 1), (2, 0), (0, 1, 2), (1, 1, 1), (3, 0, 0),
                 (1, 0, 2, 1), (0, 4, 0, 0), (1, 1, 1, 1, 1, 0), (2, 2, 0, 1, 0, 1),
                 (0, 0, 0, 6, 0, 0, 0), (1, 0, 1, 1, 0, 1, 1, 1), (2, 0, 0, 1, 0, 3, 0, 0),
                 (2, 1, 0, 1, 1, 0, 1, 0), (3, 0, 0, 3, 0, 0, 0, 0), (0, 1, 1, 1, 0, 1, 1, 1)]
# plus six bunched photons at m = 8, and 41 modes, where base-3 integer codes overflow int64
CONVOLUTION_SOURCES = [*ROUTE_SOURCES, (0, 0, 0, 0, 0, 0, 0, 6), (1, 1) + (0,) * 39]


def test_column_selection_matches_per_target_route_bitwise():
    rng = np.random.default_rng(88)
    for source in ROUTE_SOURCES:
        U = haar_unitary(len(source), rng)
        assert output_distribution(U, source) == per_target_law(U, source, True), source


def test_convolution_matches_permanent_route():
    # the photon-by-photon convolution against Per(|U_ST|^2)/t!, a different
    # summation order: a few ulp apart, and keyed in occupation_states order
    rng = np.random.default_rng(88)
    for source in CONVOLUTION_SOURCES:
        U = haar_unitary(len(source), rng)
        law = classical_output_distribution(U, source)
        ref = per_target_law(U, source, False)
        assert list(law) == list(ref) == occupation_states(len(source), sum(source)), source
        assert max(abs(law[t] - ref[t]) for t in ref) <= 4e-15, source


def test_distinguishable_mean_occupation_is_sum_of_column_weights():
    # photons land independently: <t_j> = sum_i s_i |U_ji|^2
    rng = np.random.default_rng(89)
    for source in CONVOLUTION_SOURCES:
        U = haar_unitary(len(source), rng)
        law = classical_output_distribution(U, source)
        mean = sum(p * np.array(t) for t, p in law.items())
        assert np.max(np.abs(mean - np.abs(U) ** 2 @ np.array(source))) <= 1e-13, source


class TestClassicalAndNoise:
    def test_identity_classical_equals_quantum(self):
        q = output_distribution(np.eye(3), (1, 1, 0))
        c = classical_output_distribution(np.eye(3), (1, 1, 0))
        assert total_variation(q, c) <= 1e-12

    def test_coupler_classical_coincidence(self):
        c = classical_output_distribution(COUPLER, (1, 1))
        assert c[(1, 1)] == pytest.approx(0.5)
        assert c[(2, 0)] == pytest.approx(0.25)
        assert c[(0, 2)] == pytest.approx(0.25)
        bunched = classical_output_distribution(COUPLER, (2, 0))
        assert bunched == pytest.approx({(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}, abs=1e-15)

    def test_classical_law_matches_polynomial_oracle_on_bunched_sources(self):
        rng = np.random.default_rng(31)
        for m in range(2, 5):
            U = haar_unitary(m, rng)
            for n in range(2, 5):
                for source in occupation_states(m, n):
                    if max(source) < 2:
                        continue
                    law = classical_output_distribution(U, source)
                    ref = distinguishable_distribution(U, source)
                    assert set(law) >= set(ref)
                    for t, p in law.items():
                        assert p == pytest.approx(ref.get(t, 0.0), abs=1e-12)

    def test_partial_visibility_interpolates(self):
        noise = NoiseModel(hom_visibility=0.88)
        law = protocol_distribution(COUPLER, "00", noise)
        assert law[(1, 1)] == pytest.approx((1 - 0.88) / 2)
        assert law[(2, 0)] == pytest.approx(0.5 * 0.88 + 0.25 * 0.12)

    def test_higher_order_admixture(self):
        noise = NoiseModel(higher_order_rate=0.1)
        law = protocol_distribution(np.eye(2), "00", noise)
        k = len(occupation_states(2, 2))
        assert law[(1, 1)] == pytest.approx(0.9 + 0.1 / k)
        assert sum(law.values()) == pytest.approx(1.0)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(hom_visibility=1.2)
        with pytest.raises(ValueError):
            NoiseModel(higher_order_rate=-0.1)


def make_rng(seed=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class TestRunProtocol:
    def test_identity_returns_plaintext(self):
        result = run_protocol(np.eye(4), "1010", linear_ensemble(1).key(0), 50, make_rng())
        assert result.occupation_counts == {(0, 1, 0, 1): 50}
        assert postselect(result.occupation_counts) == ({"1010": 1.0}, 0)

    def test_key_independence_of_exact_law(self):
        rng = np.random.default_rng(17)
        dists = []
        for _ in range(20):
            key = sample_haar_key(rng, 64, 64, 64)
            # the exact law never touches the key; the end-to-end check is that
            # run_protocol accepts every key and decrypts it faithfully
            result = run_protocol(U1, "0111", key, 200, make_rng(1))
            dists.append(protocol_distribution(U1, "0111"))
            assert result.shots == 200
        for d in dists[1:]:
            assert total_variation(d, dists[0]) == 0.0

    def test_empirical_matches_exact(self):
        result = run_protocol(U1, "0111", linear_ensemble(1).key(0), 100000, make_rng(7))
        exact = protocol_distribution(U1, "0111")
        fidelity = bhattacharyya_fidelity(exact, result.empirical_occupations())
        assert fidelity >= 0.995

    def test_three_walker_collisions_are_tallied(self):
        result = run_protocol(U1, "1000", linear_ensemble(1).key(0), 20000, make_rng(3))
        bitstrings, collisions = postselect(result.occupation_counts)
        assert collisions > 0
        kept = result.shots - collisions
        assert sum(bitstrings.values()) == pytest.approx(1.0, abs=1e-12)
        # every kept shot is one collision-free occupation, tallied under its bit-string
        assert {b: round(p * kept) for b, p in bitstrings.items()} == {
            occupation_to_bits(occ): c for occ, c in result.occupation_counts.items()
            if max(occ) <= 1}
        assert all(set(b) <= {"0", "1"} and len(b) == 4 for b in bitstrings)

    def test_result_carries_protocol_distribution(self):
        for noise in (NoiseModel(), NoiseModel(0.9, 0.01), NoiseModel(0.5, 0.0)):
            result = run_protocol(U1, "0100", linear_ensemble(1).key(0), 100, make_rng(2), noise=noise)
            assert result.exact_occupations == protocol_distribution(U1, "0100", noise)

    def test_pinned_counts_with_noise(self):
        # recorded from one multinomial draw of protocol_distribution, so spurious
        # shots come from the printed law
        result = run_protocol(U1, "0101", linear_ensemble(1).key(0), 3000, make_rng(5),
                              noise=NoiseModel(0.9, 0.01))
        assert result.occupation_counts == {
            (0, 0, 0, 2): 57, (0, 0, 1, 1): 246, (0, 0, 2, 0): 583, (0, 1, 0, 1): 91,
            (0, 1, 1, 0): 235, (0, 2, 0, 0): 66, (1, 0, 0, 1): 224, (1, 0, 1, 0): 808,
            (1, 1, 0, 0): 163, (2, 0, 0, 0): 527}
        assert postselect(result.occupation_counts)[1] == 1233

    def test_noisy_shots_follow_protocol_distribution(self):
        # Pearson chi-square of 10^6 shots against the printed law; a correct
        # sampler falls below the threshold with probability 1e-6
        noise = NoiseModel(hom_visibility=0.5, higher_order_rate=0.2)
        result = run_protocol(U1, "1000", linear_ensemble(1).key(0), 10 ** 6, make_rng(41), noise=noise)
        law = protocol_distribution(U1, "1000", noise)
        expected = np.array([p * result.shots for p in law.values()])
        observed = np.array([result.occupation_counts.get(t, 0) for t in law])
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2.sf(statistic, df=len(law) - 1) >= 1e-6

    def test_same_seed_same_counts(self):
        a = run_protocol(U1, "0101", linear_ensemble(1).key(0), 3000, make_rng(5))
        b = run_protocol(U1, "0101", linear_ensemble(1).key(0), 3000, make_rng(5))
        assert a.occupation_counts == b.occupation_counts

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="occupation length 3 != mode count 4"):
            run_protocol(U1, "011", linear_ensemble(1).key(0), 10, make_rng())

    def test_bad_shots(self):
        for shots in (0, MAX_SHOTS + 1):
            with pytest.raises(ValueError, match="shots"):
                run_protocol(U1, "0111", linear_ensemble(1).key(0), shots, make_rng())
        result = run_protocol(U1, "0111", linear_ensemble(1).key(0), MAX_SHOTS, make_rng())
        assert sum(result.occupation_counts.values()) == MAX_SHOTS

    @pytest.mark.parametrize("U, plaintext, noise", [
        (U1, "1000", NoiseModel(0.5, 0.2)),
        (haar_unitary(8, np.random.default_rng(8)), "01001000", NoiseModel(0.9, 0.01)),
    ], ids=["u1-noisy", "haar8"])
    def test_multinomial_tally_matches_one_uniform_per_shot(self, U, plaintext, noise):
        # two-sample chi-square homogeneity of 10^6 shots from each route; a correct
        # sampler fails with probability 1e-6
        shots = 10 ** 6
        result = run_protocol(U, plaintext, linear_ensemble(1).key(0), shots, make_rng(51),
                              noise=noise)
        law = result.exact_occupations
        oracle = counts_by_uniforms(law, shots, make_rng(52))
        # the spurious-shot admixture keeps every cell's expected count >= 5
        assert min(law.values()) * shots >= 5
        table = [[tally.get(t, 0) for t in law] for tally in (result.occupation_counts, oracle)]
        assert chi2_contingency(table).pvalue >= 1e-6


class TestPostselect:
    def test_law_and_tally_alike(self):
        law = {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}
        assert postselect(law) == ({"00": 1.0}, 0.5)
        tally = {(2, 0): 3, (1, 1): 4, (0, 2): 1}
        assert postselect(tally) == ({"00": 1.0}, 4)

    def test_keeps_zero_weight_outcomes_and_renormalizes(self):
        law = {(1, 0, 1): 0.0, (0, 1, 1): 0.2, (1, 1, 0): 0.6, (0, 0, 2): 0.2}
        bitstrings, collision = postselect(law)
        assert bitstrings == pytest.approx({"010": 0.0, "100": 0.25, "001": 0.75}, abs=1e-15)
        assert collision == 0.2

    def test_nothing_kept(self):
        assert postselect({(2, 0): 5, (0, 2): 5}) == ({}, 10)
        assert postselect({(1, 1): 0.0, (2, 0): 1.0}) == ({}, 1.0)


def _walk_laws_and_tallies():
    """Exact laws and shot tallies of Haar 8-mode and 4-mode walks, noisy and not."""
    rng = np.random.default_rng(90)
    cases = []
    for U, plaintext in ((haar_unitary(8, rng), "00100001"), (haar_unitary(8, rng), "01001000"),
                         (U1, "1000"), (U1, "0110"), (np.eye(4), "0101")):
        for noise in (NoiseModel(), NoiseModel(0.9, 0.01), NoiseModel(0.5, 0.2)):
            result = run_protocol(U, plaintext, linear_ensemble(1).key(0), 20000, make_rng(9),
                                  noise=noise)
            cases.append((result.exact_occupations, result.empirical_occupations(),
                          result.occupation_counts))
    return cases


HAND_LAWS = [{}, {(2, 0): 5, (0, 2): 5}, {(1, 1): 0.0, (2, 0): 1.0}, {(1, 0): 3},
             {(1, 0, 1): 0.0, (0, 1, 1): 0.2, (1, 1, 0): 0.6, (0, 0, 2): 0.2},
             {(0, 0, 0): 1.0}, {(1,): 1, (0,): 2}]


def test_array_postselect_and_fidelity_equal_the_dict_definitions():
    # == on values, key order and the type of the collision weight (an int for a tally)
    cases = _walk_laws_and_tallies()
    for law in HAND_LAWS + [x for case in cases for x in case]:
        ours, ref = postselect(law), postselect_by_dict(law)
        assert ours == ref and list(ours[0]) == list(ref[0]), law
        assert type(ours[1]) is type(ref[1])
    for exact, empirical, counts in cases:
        pairs = [(exact, empirical), (postselect(exact)[0], postselect(counts)[0]),
                 (exact, {}), (empirical, exact)]
        for p, q in pairs:
            assert bhattacharyya_fidelity(p, q) == fidelity_by_dict(p, q)
    for p, q in (({}, {}), ({"a": 1.0}, {"b": 1.0}), ({"a": -0.1, "b": 1.1}, {"a": 0.5, "b": 0.5})):
        assert bhattacharyya_fidelity(p, q) == fidelity_by_dict(p, q)


class TestBhattacharyya:
    def test_identical(self):
        p = {"a": 0.3, "b": 0.7}
        assert bhattacharyya_fidelity(p, p) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bhattacharyya_fidelity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_half_overlap(self):
        f = bhattacharyya_fidelity({"a": 0.5, "b": 0.5}, {"a": 1.0})
        assert f == pytest.approx(np.sqrt(0.5))


class TestDevicePayload:
    def test_round_trip(self):
        payload = unitary_to_payload(U1)
        back = unitary_from_payload(payload)
        assert np.max(np.abs(back - U1)) <= 1e-15

    def test_malformed(self):
        good = unitary_to_payload(np.eye(2))
        for corrupt, message in (
            ({}, "device payload must be an object with 'm' and 'unitary'"),
            ({"m": 2}, "device payload must be an object with 'm' and 'unitary'"),
            ({"m": 0, "unitary": []}, "'m' must be an integer >= 1, got 0"),
            ({"m": 2, "unitary": [[[1, 0]]]}, "'unitary' must be a list of 2 entries"),
            ({"m": 2, "unitary": [[[1, 0], [0]], [[0, 0], [1, 0]]]},
             "'unitary'[0][1] must be a list of 2 entries"),
            ({"m": 2, "unitary": [[[1, 0], ["x", 0]], [[0, 0], [1, 0]]]},
             "'unitary'[0][1][0] must be a finite number, got 'x'"),
            ({"m": True, "unitary": [[[1, 0]]]}, "'m' must be an integer >= 1, got True"),
            ({"m": 1, "unitary": [[[True, False]]]},
             "'unitary'[0][0][0] must be a finite number, got True"),
            ({"m": 1, "unitary": [[[10 ** 400, 0]]]},
             "'unitary'[0][0][0] must be a finite number"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                unitary_from_payload(corrupt)
        unitary_from_payload(good)
